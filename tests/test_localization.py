"""Localization at coordinate primes and the semicontinuity machinery."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fsplit import (
    CoordinatePrime,
    FsplitError,
    MissingFlag,
    NotContaining,
    PrimeChain,
    PrimeField,
    RationalFunctionField,
    Ring,
    check_kunz_constancy,
    check_localization_monotonicity,
    localize_at_coordinate_prime,
    normalized_splitting_number,
    s_e_at_prime,
    semicontinuity_scan,
)
from corpus import BY_NAME, CORPUS

R23 = Ring(PrimeField(2), ("x", "y", "z"))
NODE3 = R23.ideal(R23.var("x") * R23.var("y"))


def test_localize_examples():
    ring, ideal = localize_at_coordinate_prime(NODE3, CoordinatePrime(("x", "y")))
    assert ring.field == RationalFunctionField(2, ("z",))
    assert ring.variables == ("x", "y")
    assert [str(g) for g in ideal.generators] == ["x*y"]

    ring, ideal = localize_at_coordinate_prime(NODE3, CoordinatePrime(("x", "z")))
    assert ring.field == RationalFunctionField(2, ("y",))
    assert [str(g) for g in ideal.generators] == ["x"]  # y became a unit

    same_ring, same_ideal = localize_at_coordinate_prime(
        NODE3, CoordinatePrime(("x", "y", "z"))
    )
    assert same_ring is R23 and same_ideal is NODE3


def test_localize_zero_prime():
    zero_ideal = R23.ideal()
    ring, ideal = localize_at_coordinate_prime(zero_ideal, CoordinatePrime(()))
    assert ring.nvars == 0 and ring.field.alpha() == 3
    rep = normalized_splitting_number(ideal, 1)
    assert rep.s_e == 1 and rep.dim == 0


def test_not_containing():
    with pytest.raises(NotContaining):
        localize_at_coordinate_prime(NODE3, CoordinatePrime(("z",)))
    ring, ideal = localize_at_coordinate_prime(NODE3, CoordinatePrime(("x",)))
    assert ring.field == RationalFunctionField(2, ("y", "z"))
    assert [str(g) for g in ideal.generators] == ["x"]


def test_s_e_at_prime_values():
    expectations = {
        ("x",): (Fraction(1), 0, 2),
        ("x", "z"): (Fraction(1), 1, 1),
        ("x", "y"): (Fraction(1, 2), 1, 1),
        ("x", "y", "z"): (Fraction(1, 2), 2, 0),
    }
    for names, (s, dim, a) in expectations.items():
        rep = s_e_at_prime(NODE3, CoordinatePrime(names), 1)
        assert (rep.s_e, rep.dim, rep.alpha) == (s, dim, a), names


def test_full_prime_matches_origin_route():
    for entry in CORPUS:
        if entry.ring.nvars > 2:
            continue
        P = CoordinatePrime(entry.ring.variables)
        assert s_e_at_prime(entry.ideal, P, 1) == normalized_splitting_number(entry.ideal, 1)


def test_monotonicity_examples():
    chain = PrimeChain((CoordinatePrime(("x",)), CoordinatePrime(("x", "z"))))
    res = check_localization_monotonicity(NODE3, chain, 1, equidimensional=True)
    assert res.monotone and res.values() == (1, 1)
    chain = PrimeChain((CoordinatePrime(("x",)), CoordinatePrime(("x", "y", "z"))))
    res = check_localization_monotonicity(NODE3, chain, 1, equidimensional=True)
    assert res.monotone and res.values() == (1, Fraction(1, 2))
    chain = PrimeChain((CoordinatePrime(("x", "y")), CoordinatePrime(("x", "y", "z"))))
    res = check_localization_monotonicity(NODE3, chain, 1, equidimensional=True)
    assert res.monotone and res.values() == (Fraction(1, 2), Fraction(1, 2))


def test_monotonicity_needs_flag():
    chain = PrimeChain((CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))))
    with pytest.raises(MissingFlag):
        check_localization_monotonicity(NODE3, chain, 1)


def test_chain_strictness():
    with pytest.raises(FsplitError):
        PrimeChain((CoordinatePrime(("x",)), CoordinatePrime(("x",))))
    with pytest.raises(FsplitError):
        PrimeChain((CoordinatePrime(("x", "y")), CoordinatePrime(("x",))))


def test_kunz_examples():
    primes = [CoordinatePrime(("x",)), CoordinatePrime(("x", "y")), CoordinatePrime(("x", "y", "z"))]
    res = check_kunz_constancy(NODE3, primes, connected=True, equidimensional=True)
    # recomputed pairs: (0, 2), (1, 1), (2, 0); the asserted invariant is constancy
    assert [(d, a) for _, d, a in res.rows] == [(0, 2), (1, 1), (2, 0)]
    assert res.constant and res.sums() == (2, 2, 2)

    R3 = Ring(PrimeField(3), ("x", "y"))
    zero = R3.ideal()
    res = check_kunz_constancy(
        zero,
        [CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))],
        connected=True,
        equidimensional=True,
    )
    assert res.sums() == (2, 2)

    single = check_kunz_constancy(
        NODE3, [CoordinatePrime(("x",))], connected=True, equidimensional=True
    )
    assert single.constant


def test_kunz_needs_flags():
    with pytest.raises(MissingFlag):
        check_kunz_constancy(NODE3, [CoordinatePrime(("x",))], connected=True)
    with pytest.raises(MissingFlag):
        check_kunz_constancy(NODE3, [CoordinatePrime(("x",))], equidimensional=True)


def test_scan_example():
    primes = [
        CoordinatePrime(("x",)),
        CoordinatePrime(("x", "z")),
        CoordinatePrime(("x", "y")),
        CoordinatePrime(("x", "y", "z")),
    ]
    report = semicontinuity_scan(NODE3, primes, 1, [Fraction(3, 4)])
    verdict = report.thresholds[0]
    assert {P.variables for P in verdict.strict_members} == {("x",), ("x", "z")}
    assert verdict.strict_closed and verdict.weak_closed
    assert report.passed
    assert report.kunz_constant and set(report.kunz_sums) == {2}

    trivial = semicontinuity_scan(NODE3, primes, 1, [Fraction(0)])
    assert len(trivial.thresholds[0].strict_members) == 4
    assert trivial.passed


def test_scan_zero_ideal_all_thresholds_below_one():
    R3 = Ring(PrimeField(3), ("x", "y"))
    zero = R3.ideal()
    primes = [CoordinatePrime(()), CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))]
    report = semicontinuity_scan(zero, primes, 1, [Fraction(1, 2), Fraction(1)])
    assert report.passed
    assert len(report.thresholds[0].strict_members) == 3


def test_localize_over_function_field_base():
    # the base field already carries a transcendental; localization appends more
    F = RationalFunctionField(2, ("t",))
    R = Ring(F, ("x", "y", "z"))
    x, y, z = R.gens()
    t = R.constant(F.transcendental("t"))
    I = R.ideal(x * y - t * x * z)  # x(y - tz): branches x=0 and y=tz cross along z=0

    ring2, I2 = localize_at_coordinate_prime(I, CoordinatePrime(("x", "y")))
    assert ring2.field.transcendentals == ("t", "z")

    expectations = {
        # at (x) everything but x is inverted: the localization is a field
        ("x",): (Fraction(1), 0, 3),
        # z is a unit at (x, y), so y - tz is too; only the branch (x) survives
        ("x", "y"): (Fraction(1), 1, 2),
        # the crossing locus: x * y' after y' = y - tz, a node
        ("x", "y", "z"): (Fraction(1, 2), 2, 1),
    }
    for names, want in expectations.items():
        rep = s_e_at_prime(I, CoordinatePrime(names), 1)
        assert (rep.s_e, rep.dim, rep.alpha) == want, names

    primes = [CoordinatePrime(n) for n in expectations]
    rows = check_kunz_constancy(I, primes, connected=True, equidimensional=True)
    assert rows.constant and set(rows.sums()) == {3}
    chain = PrimeChain(tuple(primes))
    assert check_localization_monotonicity(I, chain, 1, equidimensional=True).monotone


def test_theorem_constancy_shadow():
    # all sampled primes inside V((x, y)) carry the same value 1/q
    for name in ("node3_p2", "node3_p3", "node3_p5"):
        entry = BY_NAME[name]
        p = entry.ring.field.characteristic
        values = set()
        for P in (CoordinatePrime(("x", "y")), CoordinatePrime(("x", "y", "z"))):
            values.add(s_e_at_prime(entry.ideal, P, 1).s_e)
        assert values == {Fraction(1, p)}


def test_scan_report_shape():
    primes = [CoordinatePrime(("x",)), CoordinatePrime(("x", "y", "z"))]
    report = semicontinuity_scan(NODE3, primes, 1, [Fraction(1, 2)])
    obj = report.to_json_obj()
    assert obj["passed"] is True
    assert obj["values"][0]["prime"] == ["x"]
    assert obj["thresholds"][0]["r"] == "1/2"
