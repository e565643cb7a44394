"""Localization at coordinate primes and the semicontinuity machinery."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fsplit.localization
from fsplit import (
    CoordinatePrime,
    FsplitError,
    NotContaining,
    PrimeChain,
    PrimeField,
    RationalFunctionField,
    Ring,
    SplittingReport,
    buchberger,
    localize_at_coordinate_prime,
    normal_form,
    normalized_splitting_number,
    s_e_at_prime,
    semicontinuity_scan,
    splitting_ideal,
)
from fsplit.artinian import length
from fsplit.ringspec import parse_polynomial
from fsplit.splitting import _eliminate_linear
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
    with pytest.raises(NotContaining, match=r"^generator 1 \(x\*y\) does not lie in \(z\)$"):
        localize_at_coordinate_prime(NODE3, CoordinatePrime(("z",)))
    with pytest.raises(NotContaining, match=r"^\['w'\] are not ring variables$"):
        localize_at_coordinate_prime(NODE3, CoordinatePrime(("w",)))
    ring, ideal = localize_at_coordinate_prime(NODE3, CoordinatePrime(("x",)))
    assert ring.field == RationalFunctionField(2, ("y", "z"))
    assert [str(g) for g in ideal.generators] == ["x"]


@settings(max_examples=300)
@given(
    st.sets(st.integers(0, 2)),
    st.lists(st.tuples(st.integers(1, 2), st.tuples(*[st.integers(0, 2)] * 3)), max_size=4),
)
def test_containment_is_membership_in_the_prime(idx, terms):
    # the one containment rule, held to a normal form mod the prime's basis
    ring = Ring(PrimeField(3), ("x", "y", "z"))
    g = ring.zero()
    for c, exps in terms:
        g = g + c * ring.monomial(exps)
    P = CoordinatePrime(tuple(ring.variables[i] for i in sorted(idx)))
    inside = normal_form(g, buchberger(ring.ideal(*(ring.gens()[i] for i in idx)))).is_zero()
    try:
        fsplit.localization._verify_containment(ring.ideal(g), P)
    except NotContaining:
        assert not inside
    else:
        assert inside


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


ADBC3 = Ring(PrimeField(3), ("a", "b", "c", "d"))
QUAD3 = Ring(PrimeField(3), ("x", "y", "z"))

# the regular rows of the benchmark's probe scans: localize_at_coordinate_prime
# is public, so its ring and generators stay as they are; s_e_at_prime solves a
# linear variable out of them afterwards
REGULAR_ROWS = [
    (ADBC3, "a*d - b*c", ("a", "b"), "F_3(c,d)[a,b]", "a + ((2*c)/(d))*b", 1),
    (ADBC3, "a*d - b*c", ("a", "c"), "F_3(b,d)[a,c]", "a + ((2*b)/(d))*c", 1),
    (ADBC3, "a*d - b*c", ("a", "b", "c"), "F_3(d)[a,b,c]", "b*c + 2*d*a", 2),
    (QUAD3, "x^2 - y*z", ("x", "y"), "F_3(z)[x,y]", "x^2 + 2*z*y", 1),
    (QUAD3, "x^2 - y*z", ("x", "z"), "F_3(y)[x,z]", "x^2 + 2*y*z", 1),
]


@pytest.mark.parametrize("ring, ideal, names, localized, generator, left", REGULAR_ROWS,
                         ids=[",".join(row[2]) for row in REGULAR_ROWS])
@pytest.mark.parametrize("e", [1, 2])
def test_regular_rows_solve_out_a_variable(ring, ideal, names, localized, generator, left, e):
    I = ring.ideal(parse_polynomial(ring, ideal))
    P = CoordinatePrime(names)
    new_ring, I_p = localize_at_coordinate_prime(I, P)
    assert (repr(new_ring), [str(g) for g in I_p.generators]) == (localized, [generator])
    # one variable and the generator go: the zero ideal in `left` variables
    small = _eliminate_linear(I_p, e)
    assert small.ring.nvars == left and small.nonzero_generators() == ()
    rep = s_e_at_prime(I, P, e)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (3 ** (e * left), left, 1)
    # splitting_ideal keeps the given presentation: an independent length
    assert rep.splitting_length == length(splitting_ideal(I_p, e))


def test_full_prime_matches_origin_route():
    for entry in CORPUS:
        if entry.ring.nvars > 2:
            continue
        P = CoordinatePrime(entry.ring.variables)
        assert s_e_at_prime(entry.ideal, P, 1) == normalized_splitting_number(entry.ideal, 1)


def test_local_value_at_a_prime():
    # (x(y - z), y(y - z)) = (x, y) cap (y - z) over F_3: z is a unit at
    # P = (x, y), so y - z is too and R_P is the field F_3(z), s_1 = 1 with
    # dim 0; the line y = z of F_3(z)[x, y] misses the origin, and its global
    # dimension 1 would give 1/3
    R = Ring(PrimeField(3), ("x", "y", "z"))
    x, y, z = R.gens()
    I = R.ideal(x * (y - z), y * (y - z))
    rep = s_e_at_prime(I, CoordinatePrime(("x", "y")), 1)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (1, 0, 1)


def _chain(*names):
    return PrimeChain(tuple(CoordinatePrime(n) for n in names))


def test_monotonicity_examples():
    chains = [
        _chain(("x",), ("x", "z")),
        _chain(("x",), ("x", "y", "z")),
        _chain(("x", "y"), ("x", "y", "z")),
    ]
    report = semicontinuity_scan(NODE3, [], 1, [], chains=chains)
    assert [(values, ok) for _, values, ok in report.chains] == [
        ((1, 1), True),
        ((1, Fraction(1, 2)), True),
        ((Fraction(1, 2), Fraction(1, 2)), True),
    ]
    assert report.passed and report.rows == ()


def test_a_rising_chain_fails_the_scan(monkeypatch):
    # a table with s_e rising from (x) to (x, y): every threshold set is
    # closed on the given primes, so only the chain can fail the scan
    values = {("x",): Fraction(1, 2), ("x", "y"): Fraction(1)}

    def fake(I, P, e, budget):
        return SplittingReport(e, 2**e, 0, 0, 0, values[P.variables], 0)

    monkeypatch.setattr(fsplit.localization, "s_e_at_prime", fake)
    primes = [CoordinatePrime(("x",))]
    assert semicontinuity_scan(NODE3, primes, 1, [Fraction(1, 2)]).passed
    report = semicontinuity_scan(
        NODE3, primes, 1, [Fraction(1, 2)], chains=[_chain(("x",), ("x", "y"))]
    )
    assert [ok for _, _, ok in report.chains] == [False]
    assert not report.passed
    assert report.to_json_obj()["monotonicity"][0] == {
        "chain": [["x"], ["x", "y"]], "values": ["1/2", "1"], "monotone": False,
    }


def test_a_threshold_set_open_under_generization_fails_the_scan(monkeypatch):
    # s_e above r at (x, y) but not at (x), inside it: both threshold sets
    # hold (x, y) without (x), so neither is closed and the scan fails
    values = {("x",): Fraction(1, 4), ("x", "y"): Fraction(1)}

    def fake(I, P, e, budget):
        return SplittingReport(e, 2**e, 0, 0, 0, values[P.variables], 0)

    monkeypatch.setattr(fsplit.localization, "s_e_at_prime", fake)
    primes = [CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))]
    report = semicontinuity_scan(NODE3, primes, 1, [Fraction(1, 2)])
    verdict = report.thresholds[0]
    assert verdict.strict_members == verdict.weak_members == (primes[1],)
    assert not verdict.strict_closed and not verdict.weak_closed
    obj = report.to_json_obj()
    assert obj["passed"] is False
    open_set = {"members": [["x", "y"]], "generization_closed": False}
    assert obj["thresholds"][0]["strict"] == obj["thresholds"][0]["weak"] == open_set


def test_scan_localizes_each_distinct_prime_once(monkeypatch):
    # a prime given twice, in two variable orders, or again in a chain, is
    # computed once but listed as given
    calls = []

    def counted(I, P, e, budget):
        calls.append(P.variables)
        return s_e_at_prime(I, P, e, budget)

    monkeypatch.setattr(fsplit.localization, "s_e_at_prime", counted)
    px, pxz, pzx = (CoordinatePrime(n) for n in (("x",), ("x", "z"), ("z", "x")))
    chain = PrimeChain((px, CoordinatePrime(("z", "y", "x"))))
    report = semicontinuity_scan(NODE3, [pxz, px, pzx, px], 1, [Fraction(1, 2)], chains=[chain])
    assert calls == [("x", "z"), ("x",), ("z", "y", "x")]
    assert [P.variables for P, _ in report.rows] == [("x", "z"), ("x",), ("z", "x"), ("x",)]
    assert report.rows[0][1] is report.rows[2][1]
    assert report.to_json_obj()["values"][2]["prime"] == ["z", "x"]
    assert report.chains == ((chain, (1, Fraction(1, 2)), True),)


def test_scan_chain_verdicts_match_a_per_chain_recomputation():
    entry = BY_NAME["node3_p2"]
    chains = [PrimeChain(tuple(CoordinatePrime(tuple(s)) for s in c)) for c in entry.chains]
    for e in (1, 2):
        report = semicontinuity_scan(entry.ideal, entry.primes, e, [Fraction(1, 2)], chains=chains)
        for chain, (given, values, monotone) in zip(chains, report.chains):
            want = tuple(s_e_at_prime(entry.ideal, P, e).s_e for P in chain.primes)
            assert given is chain and values == want
            assert monotone == all(a >= b for a, b in zip(want, want[1:]))
        assert report.passed == (
            all(t.strict_closed and t.weak_closed for t in report.thresholds)
            and all(m for _, _, m in report.chains)
        )


def test_chain_strictness():
    with pytest.raises(FsplitError):
        PrimeChain((CoordinatePrime(("x",)), CoordinatePrime(("x",))))
    with pytest.raises(FsplitError):
        PrimeChain((CoordinatePrime(("x", "y")), CoordinatePrime(("x",))))


def test_kunz_examples():
    primes = [CoordinatePrime(("x",)), CoordinatePrime(("x", "y")), CoordinatePrime(("x", "y", "z"))]
    res = semicontinuity_scan(NODE3, primes, 0, [])
    # recomputed pairs: (0, 2), (1, 1), (2, 0); the asserted invariant is constancy
    assert [(r.dim, r.alpha) for _, r in res.rows] == [(0, 2), (1, 1), (2, 0)]
    assert res.kunz_constant and res.kunz_sums == (2, 2, 2)

    R3 = Ring(PrimeField(3), ("x", "y"))
    zero = R3.ideal()
    res = semicontinuity_scan(zero, [CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))], 0, [])
    assert res.kunz_sums == (2, 2)

    single = semicontinuity_scan(NODE3, [CoordinatePrime(("x",))], 0, [])
    assert single.kunz_constant


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
    kunz = semicontinuity_scan(I, primes, 0, [])
    assert kunz.kunz_constant and set(kunz.kunz_sums) == {3}
    report = semicontinuity_scan(I, [], 1, [], chains=[PrimeChain(tuple(primes))])
    assert [ok for _, _, ok in report.chains] == [True]


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
