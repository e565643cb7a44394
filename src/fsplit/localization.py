"""Localization at coordinate primes and finite-sample semicontinuity probes.

A coordinate prime is generated by a subset of the ring variables, so
primality is structural. Localizing moves the complement variables into the
coefficient field as fresh transcendentals (the generic fiber), which agrees
with honest localization for the length invariants computed here; the corpus
pins that agreement against hand values.

``semicontinuity_scan`` is the one probe: it localizes each distinct prime
once and reads threshold closure, the Kunz sums and chain monotonicity off
that one table. The hypotheses of those statements (equidimensional,
connected) are the caller's assertions and are not checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, FsplitError, NotContaining, excerpt
from .fields import PrimeField, RatFunc, RationalFunctionField
from .poly import GREVLEX, IdealPresentation, Ring
from .splitting import SplittingReport, _require_in_prime, normalized_splitting_number


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
                raise FsplitError(
                    f"chain is not strictly increasing at {excerpt(a)} < {excerpt(b)}"
                )


def _verify_containment(I: IdealPresentation, P: CoordinatePrime) -> None:
    names = set(P.variables)
    unknown = names - set(I.ring.variables)
    if unknown:
        raise NotContaining(f"{excerpt(sorted(unknown))} are not ring variables")
    idx = [i for i, v in enumerate(I.ring.variables) if v in names]
    _require_in_prime(I.nonzero_generators(), idx, "generator", f"does not lie in {excerpt(P)}")


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
    """Splitting report of the localization at P; dim is global, not that of R_P."""
    _, I_p = localize_at_coordinate_prime(I, P)
    return normalized_splitting_number(I_p, e, budget)


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
    """Value table plus threshold-closure, Kunz and chain-monotonicity verdicts."""

    e: int
    rows: tuple  # (prime, SplittingReport), one per prime as given
    thresholds: tuple  # ThresholdVerdict
    kunz_sums: tuple
    kunz_constant: bool
    chains: tuple = ()  # (PrimeChain, s_e along it, monotone)

    @property
    def passed(self) -> bool:
        return all(t.strict_closed and t.weak_closed for t in self.thresholds) and all(
            monotone for _, _, monotone in self.chains
        )

    def to_json_obj(self) -> dict:
        obj = {
            "e": self.e,
            "values": [
                {"prime": list(P.variables), **r.to_json_obj()} for P, r in self.rows
            ],
            "thresholds": [t.to_json_obj() for t in self.thresholds],
            "kunz": {"sums": list(self.kunz_sums), "constant": self.kunz_constant},
            "passed": self.passed,
        }
        if self.chains:
            obj["monotonicity"] = [
                {
                    "chain": [list(P.variables) for P in chain.primes],
                    "values": [str(s) for s in values],
                    "monotone": monotone,
                }
                for chain, values, monotone in self.chains
            ]
        return obj


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
    *,
    chains=(),
) -> SemicontinuityReport:
    """One s_e table over the primes and the chains' primes, and every verdict off it.

    {s_e > r} and {s_e >= r} must be closed under generization on the sampled
    primes, dim + alpha (which does not depend on e) constant on them, and s_e
    non-increasing along each chain. A prime is localized once however often,
    and in whatever variable order, it is given.
    """
    primes, chains = tuple(primes), tuple(chains)
    table: dict = {}
    for P in (*primes, *(P for chain in chains for P in chain.primes)):
        key = frozenset(P.variables)
        if key not in table:
            table[key] = s_e_at_prime(I, P, e, budget)
    rows = tuple((P, table[frozenset(P.variables)]) for P in primes)
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
    monotonicity = []
    for chain in chains:
        values = tuple(table[frozenset(P.variables)].s_e for P in chain.primes)
        monotonicity.append((chain, values, all(a >= b for a, b in zip(values, values[1:]))))
    return SemicontinuityReport(
        e=e,
        rows=rows,
        thresholds=tuple(verdicts),
        kunz_sums=sums,
        kunz_constant=len(set(sums)) <= 1,
        chains=tuple(monotonicity),
    )
