"""The core formulas: splitting ideals, reports, both routes, signatures."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fsplit import (
    GREVLEX,
    CostGuardExceeded,
    InternalInconsistency,
    InvalidSocle,
    NotArtinian,
    NotContaining,
    NotGorenstein,
    PrimeField,
    RationalFunctionField,
    Ring,
    SplittingReport,
    buchberger,
    f_signature_sequence,
    frobenius_power,
    gorenstein_splitting_number,
    hypersurface_is_fpure,
    ideal_member,
    normal_form,
    normalized_splitting_number,
    socle_generator,
    splitting_ideal,
)
from fsplit import splitting
from fsplit.artinian import length
from fsplit.groebner import interreduce
from corpus import CORPUS, sop_polynomials

R2 = Ring(PrimeField(2), ("x", "y"))
R5 = Ring(PrimeField(5), ("x", "y"))


def test_splitting_ideal_examples():
    x5, y5 = R5.gens()
    J = splitting_ideal(R5.ideal(), 1)
    assert set(J.basis) == {x5**5, y5**5}
    x2, y2 = R2.gens()
    J = splitting_ideal(R2.ideal(x2 * y2), 1)
    assert set(J.basis) == {x2, y2}
    J = splitting_ideal(R5.ideal(y5**2 - x5**3), 1)
    assert J.is_unit_ideal()


def test_normalized_examples():
    x2, y2 = R2.gens()
    rep = normalized_splitting_number(R2.ideal(x2 * y2), 1)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (1, 1, Fraction(1, 2))
    assert rep.a_e == 1
    x5, y5 = R5.gens()
    rep = normalized_splitting_number(R5.ideal(y5**2 - x5**3), 1)
    assert rep.s_e == 0
    rep = normalized_splitting_number(R5.ideal(), 2)
    assert rep.s_e == 1 and rep.splitting_length == 625


def test_dual_examples():
    # the report raises InternalInconsistency unless the dual length agrees
    x2, y2 = R2.gens()
    assert normalized_splitting_number(R2.ideal(), 1).splitting_length == 4
    assert normalized_splitting_number(R2.ideal(x2 * y2), 1).splitting_length == 1
    x5, y5 = R5.gens()
    assert normalized_splitting_number(R5.ideal(y5**2 - x5**3), 1).splitting_length == 0


R3 = Ring(PrimeField(3), ("x", "y"))


def _routes(sop):
    """Every single-e entry point as route(I, e, budget)."""
    return (
        normalized_splitting_number,
        splitting_ideal,
        lambda I, e, budget: gorenstein_splitting_number(I, sop, e, budget=budget),
        lambda I, e, budget: gorenstein_splitting_number(I, sop, e, u=sop[0], budget=budget),
    )


def test_unit_ideal_rejected_cleanly():
    x2, y2 = R2.gens()
    unit = R2.ideal(x2, x2 + 1)
    for route in _routes((y2,)):
        with pytest.raises(NotArtinian):
            route(unit, 1, budget=4)
    with pytest.raises(NotArtinian):
        socle_generator(unit, ())
    with pytest.raises(NotArtinian):
        f_signature_sequence(unit, 2)


def test_ideal_off_the_origin_rejected():
    # e < 0 raises first, then the cost guard, then the origin check
    x, y = R3.gens()
    I = R3.ideal(x - 1)  # V(I) misses the origin, so s_e is undefined there
    for route in _routes((y,)):
        with pytest.raises(ValueError):
            route(I, -1, budget=0)
        with pytest.raises(CostGuardExceeded):
            route(I, 1, budget=8)  # q^n = 9
        with pytest.raises(NotContaining):
            route(I, 1, budget=9)
    with pytest.raises(NotContaining):
        gorenstein_splitting_number(I, (y,), 1, u=R3.one())
    with pytest.raises(NotContaining):
        socle_generator(I, (y,))
    with pytest.raises(CostGuardExceeded) as info:
        f_signature_sequence(I, 2, budget=0)
    assert info.value.partial.reports == ()
    with pytest.raises(NotContaining):
        f_signature_sequence(I, 2)


def test_ideal_through_the_origin_not_rejected():
    # (x, y) cap (x - 1): no generator has a constant term, so the check
    # passes; the local dimension at the origin is a separate open defect
    x, y = R3.gens()
    rep = normalized_splitting_number(R3.ideal(x**2 - x, x * y - y), 1)
    assert isinstance(rep, SplittingReport)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(b): global dimension")
def test_local_value_at_the_origin():
    # (x^2 - x, xy - y) = (x, y) cap (x - 1): the local ring at the origin is
    # the field, so s_1 = 1; the global dimension 1 of the line x = 1 gives 1/3
    x, y = R3.gens()
    assert normalized_splitting_number(R3.ideal(x**2 - x, x * y - y), 1).s_e == 1


def test_s_zero_is_one_everywhere():
    for entry in CORPUS:
        rep = normalized_splitting_number(entry.ideal, 0)
        assert rep.s_e == 1, entry.name


def test_s_zero_at_a_large_characteristic():
    # e = 0 needs no power f^(p-1): this returns at once at p = 65521, the
    # largest prime below 2^16
    R = Ring(PrimeField(65521), ("x", "y"))
    x, y = R.gens()
    rep = normalized_splitting_number(R.ideal(x * y), 0)
    assert (rep.q, rep.s_e, rep.a_e) == (1, 1, 1)


@pytest.mark.parametrize("p, e", [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
    (7, 1), (11, 1),
])
def test_determinantal_hypersurface_matches_the_toric_count(p, e):
    # k[a,b,c,d]/(ad - bc) is the toric ring of the cone {a + b = c + d}, so its
    # free rank a_e counts the points of [0, q)^4 with a + b = c + d: there are
    # min(s + 1, 2q - 1 - s) pairs in [0, q)^2 with sum s, for s < 2q - 1
    R = Ring(PrimeField(p), ("a", "b", "c", "d"))
    a, b, c, d = R.gens()
    q = p**e
    count = sum(min(s + 1, 2 * q - 1 - s) ** 2 for s in range(2 * q - 1))
    rep = normalized_splitting_number(R.ideal(a * d - b * c), e, q**4)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (count, 3, Fraction(count, q**3))


@pytest.mark.parametrize("p, e, lam", [(2, 1, 10), (2, 2, 135), (3, 1, 45)])
def test_segre_minors_match_the_toric_count(p, e, lam):
    # the 2x2 minors of [[a, b, c], [d, e, f]] cut out the Segre cone, the
    # toric ring of {x^u y^v : |u| = |v|} with u in N^2 and v in N^3, so
    # lambda_e = sum_s N_2(s) N_3(s), where N_k(s) counts the ways to write
    # s as a sum of k integers in [0, q); K = (I^[q] : I) has several
    # generators, so colon_ideal runs a running intersection
    R = Ring(PrimeField(p), ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e_, f = R.gens()
    q = p**e

    def ways(k, s):
        return sum(1 for t in itertools.product(range(q), repeat=k) if sum(t) == s)

    assert sum(ways(2, s) * ways(3, s) for s in range(2 * q - 1)) == lam
    I = R.ideal(a * e_ - b * d, a * f - c * d, b * f - c * e_)
    rep = normalized_splitting_number(I, e, q**6)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (lam, 4, Fraction(lam, q**4))


def test_corpus_pinned_values():
    for entry in CORPUS:
        for e, expected in entry.expected_s.items():
            if e > 2 and entry.ring.nvars > 2:
                continue  # q^n above the default budget; covered in acceptance
            rep = normalized_splitting_number(entry.ideal, e)
            assert rep.s_e == expected, (entry.name, e, rep.s_e)


def test_regularity_examples():
    # s_e = 1 at some e >= 1 iff the local ring at the origin is regular
    assert normalized_splitting_number(R5.ideal(), 1).s_e == 1
    x2, y2 = R2.gens()
    assert normalized_splitting_number(R2.ideal(x2 * y2), 1).s_e != 1
    R3 = Ring(PrimeField(3), ("x", "y"))
    assert normalized_splitting_number(R3.ideal(R3.var("x")), 1).s_e == 1
    # e = 0 tells nothing: s_0 = 1 for the node too
    assert normalized_splitting_number(R2.ideal(x2 * y2), 0).s_e == 1


def test_regularity_same_answer_for_e1_e2():
    for entry in CORPUS:
        if entry.ring.nvars > 2:
            continue
        regular = [normalized_splitting_number(entry.ideal, e).s_e == 1 for e in (1, 2)]
        assert regular[0] == regular[1], entry.name


def test_fpurity_dichotomy_on_hypersurfaces():
    # colon route (lambda > 0) must match the direct membership route exactly
    for entry in CORPUS:
        if not entry.hypersurface:
            continue
        f = entry.ideal.generators[0]
        for e in (1, 2):
            lam_positive = normalized_splitting_number(entry.ideal, e).s_e > 0
            assert lam_positive == hypersurface_is_fpure(f, e), (entry.name, e)


def test_socle_examples():
    x2, y2 = R2.gens()
    assert socle_generator(R2.ideal(), (x2, y2)) == R2.one()
    u = socle_generator(R2.ideal(x2 * y2), (x2 + y2,))
    # x and y agree modulo (xy, x+y); accept any valid lift and check semantics
    A = buchberger(R2.ideal(x2 * y2, x2 + y2))
    assert not normal_form(u, A).is_zero()
    assert ideal_member(u * x2, A) and ideal_member(u * y2, A)
    R3 = Ring(PrimeField(3), ("x", "y"))
    x3, y3 = R3.gens()
    with pytest.raises(NotGorenstein):
        socle_generator(R3.ideal(x3**2, x3 * y3, y3**2), ())


def test_socle_sop_validation():
    x2, y2 = R2.gens()
    with pytest.raises(NotArtinian):
        socle_generator(R2.ideal(x2 * y2), ())  # too short
    with pytest.raises(NotArtinian):
        socle_generator(R2.ideal(x2 * y2), (x2,))  # (xy, x) is not Artinian


def test_supplied_socle_is_validated():
    x2, y2 = R2.gens()
    node = R2.ideal(x2 * y2)
    ok = gorenstein_splitting_number(node, (x2 + y2,), 1, u=x2)
    assert ok.s_e == Fraction(1, 2)
    with pytest.raises(InvalidSocle):
        gorenstein_splitting_number(node, (x2 + y2,), 1, u=x2 + y2)  # lies in the ideal
    with pytest.raises(InvalidSocle):
        gorenstein_splitting_number(node, (x2 + y2,), 1, u=R2.one())  # not annihilated


@pytest.mark.parametrize(
    "I, sop, position",
    [
        (R2.ideal(R2.var("x") * R2.var("y")), "y + 1", 1),
        (R2.ideal(R2.var("x") * R2.var("y")), "x + 1", 1),
        (R2.ideal(R2.var("x") * R2.var("y")), "1", 1),
        (R2.ideal(), "x, y + 1", 2),
    ],
    ids=["y+1", "x+1", "one", "second"],
)
def test_sop_off_the_origin_is_refused_before_a_basis_of_A(monkeypatch, I, sop, position):
    # with I and every sop element in n, S/(I + sop) has the origin and a
    # nonzero socle; an element outside n is named before any basis of A
    from fsplit.ringspec import parse_polynomials

    sop = parse_polynomials(R2, sop)
    bases = []

    def counted(J, *args, **kwargs):
        bases.append(J)
        return buchberger(J, *args, **kwargs)

    monkeypatch.setattr(splitting, "buchberger", counted)
    message = re.escape(
        f"sop element {position} ({sop[position - 1]}) is not contained in the ideal of the origin"
    )
    for call in (
        lambda: socle_generator(I, sop),
        lambda: gorenstein_splitting_number(I, sop, 1),
        lambda: gorenstein_splitting_number(I, sop, 1, u=R2.var("x")),
    ):
        bases.clear()
        with pytest.raises(NotContaining, match=f"^{message}$"):
            call()
        assert bases == [I]  # only _origin_dimension's basis of I


def test_a_supplied_socle_is_checked_but_not_raised(monkeypatch):
    # x^2 - yz over F_3 with sop (y, z) has u0 = x; u = 2x + y^2 + xz is
    # 2*u0 plus an element of A, so it is taken, and u0^q is what is used
    ring = Ring(PrimeField(3), ("x", "y", "z"))
    x, y, z = ring.gens()
    I, sop = ring.ideal(x**2 - y * z), (y, z)
    length_of, used = splitting._gorenstein_length, []

    def recorded(B, w):
        used.append(w)
        return length_of(B, w)

    monkeypatch.setattr(splitting, "_gorenstein_length", recorded)
    for e, lam in ((1, 5), (2, 41)):
        used.clear()
        rep = gorenstein_splitting_number(I, sop, e, u=2 * x + y**2 + x * z)
        assert rep.splitting_length == lam and used == [x.frobenius(e)]


@pytest.mark.parametrize("e, lam", [(2, 41), (3, 365)])
def test_supplied_socle_costs_no_extra_basis(monkeypatch, e, lam):
    # x^2 - yz over F_3 with sop (y, z): a supplied u is checked against the
    # bases the socle certificate already built, so it adds no Buchberger run
    from fsplit import groebner, ideals, splitting

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return buchberger(*args, **kwargs)

    for module in (groebner, ideals, splitting):
        monkeypatch.setattr(module, "buchberger", counted)
    ring = Ring(PrimeField(3), ("x", "y", "z"))
    x, y, z = ring.gens()
    I = ring.ideal(x**2 - y * z)
    counts = []
    for u in (None, x):
        calls.clear()
        assert gorenstein_splitting_number(I, (y, z), e, u=u).splitting_length == lam
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_gorenstein_route_examples():
    x2, y2 = R2.gens()
    rep = gorenstein_splitting_number(R2.ideal(), (x2, y2), 1, u=R2.one())
    assert rep.s_e == 1 and rep.splitting_length == 4
    rep = gorenstein_splitting_number(R2.ideal(x2 * y2), (x2 + y2,), 1)
    assert rep.splitting_length == 1 and rep.s_e == Fraction(1, 2)
    x5, y5 = R5.gens()
    rep = gorenstein_splitting_number(R5.ideal(y5**2 - x5**3), (x5,), 1)
    assert rep.s_e == 0


def test_gorenstein_agrees_with_rewrite_route():
    for entry in CORPUS:
        if not entry.gorenstein:
            continue
        sop = sop_polynomials(entry)
        for e in (0, 1, 2):
            if e not in entry.expected_s:
                continue
            a = gorenstein_splitting_number(entry.ideal, sop, e)
            b = normalized_splitting_number(entry.ideal, e)
            assert (a.splitting_length, a.s_e) == (b.splitting_length, b.s_e), (entry.name, e)


def test_signature_sequences():
    est = f_signature_sequence(R5.ideal(), 3)
    assert est.values() == (1, 1, 1, 1) and est.positive
    x2, y2 = R2.gens()
    est = f_signature_sequence(R2.ideal(x2 * y2), 3)
    assert est.values() == (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert est.tail_max == Fraction(1, 2) and est.tail_min == Fraction(1, 8)
    x5, y5 = R5.gens()
    est = f_signature_sequence(R5.ideal(y5**2 - x5**3), 2)
    assert est.values() == (1, 0, 0) and not est.positive


def test_signature_sequence_checks_the_flatness_bound(monkeypatch):
    # lambda_(e+1) <= p^n * lambda_e; a report that breaks it must raise
    x2, y2 = R2.gens()
    I = R2.ideal(x2 * y2)
    honest = splitting._splitting_report

    def inflated(J, e, q, d):
        rep = honest(J, e, q, d)
        return dataclasses.replace(rep, splitting_length=5) if e == 2 else rep

    monkeypatch.setattr(splitting, "_splitting_report", inflated)
    with pytest.raises(InternalInconsistency) as info:
        f_signature_sequence(I, 3)
    msg = str(info.value)
    assert "F_2[x,y]" in msg and "lambda_2 = 5" in msg and "lambda_1 = 1" in msg


def test_s_e_above_one_is_an_inconsistency(monkeypatch):
    # a_e <= q^(dim + alpha), so a correct lambda has s_e <= 1. For xy over
    # F_2 at e = 1 the primal length is 1 and the dual staircase count 3;
    # taking every length as its complement in q^n = 4 keeps the two routes
    # in agreement at lambda = 3 > q^dim = 2
    honest = splitting.length
    monkeypatch.setattr(splitting, "length", lambda gb: 4 - honest(gb))
    x2, y2 = R2.gens()
    with pytest.raises(InternalInconsistency) as info:
        normalized_splitting_number(R2.ideal(x2 * y2), 1)
    msg = str(info.value)
    for part in ("x*y", "F_2[x,y]", "e = 1", "s_e = 3/2", "lambda = 3", "dim = 1"):
        assert part in msg, (part, msg)


R2_4 = Ring(PrimeField(2), ("x", "y", "z", "w"))


def _twisted_cubic():
    x, y, z, w = R2_4.gens()
    return R2_4.ideal(x * z - y**2, y * w - z**2, x * w - y * z)


def test_origin_step_runs_once_per_call_and_per_sweep(monkeypatch):
    # one reduced basis of I gives both the NotContaining check and dim S/I,
    # once per call and once per sweep, not once per e
    I = _twisted_cubic()
    on_I = []

    def counted(J, *args, **kwargs):
        if J is I:
            on_I.append(1)
        return buchberger(J, *args, **kwargs)

    monkeypatch.setattr(splitting, "buchberger", counted)
    est = f_signature_sequence(I, 3)
    assert est.values() == (1, Fraction(1, 4), Fraction(3, 8), Fraction(21, 64))
    assert len(on_I) == 1
    for e in range(4):
        on_I.clear()
        assert normalized_splitting_number(I, e) == est.reports[e]
        assert len(on_I) == 1


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(3), PrimeField(5), RationalFunctionField(3, ("t",))],
    ids=repr,
)
@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("e", range(4))
def test_pure_power_basis_is_the_reduced_basis(field, n, e):
    # the primal colon interreduces the pure powers of n^[q], with no Buchberger
    ring = Ring(field, ("x", "y", "z", "w")[:n])
    nq = frobenius_power(ring.variable_ideal(), e)
    # equality compares the ring, the order and the raw terms
    assert interreduce(ring, nq.generators, GREVLEX) == buchberger(nq, GREVLEX)


def test_cost_guard_partial_results():
    x2, y2 = R2.gens()
    with pytest.raises(CostGuardExceeded) as info:
        f_signature_sequence(R2.ideal(x2 * y2), 5, budget=10)
    partial = info.value.partial
    assert partial is not None
    assert partial.values() == (1, Fraction(1, 2))  # e = 0, 1 fit in a budget of 10
    I = _twisted_cubic()
    with pytest.raises(CostGuardExceeded) as info:
        f_signature_sequence(I, 3, budget=4**4)  # e = 3 needs 8^4
    assert info.value.partial.reports == tuple(
        normalized_splitting_number(I, e) for e in range(3)
    )


def test_cost_guard_refuses_huge_e_without_the_power():
    # q^n = 2^(3 * 10^6) has far more digits than Python converts to str;
    # the guard refuses by bit length and names the power as p^(e*n)
    R = Ring(PrimeField(2), ("x", "y", "z"))
    x, y, z = R.gens()
    with pytest.raises(CostGuardExceeded) as info:
        normalized_splitting_number(R.ideal(x * y - z**3), 10**6)
    assert str(info.value) == "q^n = 2^3000000 exceeds the standard-monomial budget 1000000"


def test_report_json_roundtrip():
    rep = normalized_splitting_number(R2.ideal(R2.var("x") * R2.var("y")), 1)
    obj = rep.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj == {
        "e": 1, "q": 2, "lambda": "1", "dim": 1, "alpha": 0, "s_e": "1/2", "a_e": "1",
    }
    est = f_signature_sequence(R2.ideal(R2.var("x") * R2.var("y")), 2)
    obj = est.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
    assert obj["reports"] == [r.to_json_obj() for r in est.reports]
    assert (obj["tail_max"], obj["tail_min"], obj["positive"]) == ("1/2", "1/4", True)


def test_a_e_counts_free_summands_scale():
    # a_e = s_e * q^(dim + alpha) must be integral on the whole corpus
    for entry in CORPUS:
        for e in (0, 1):
            rep = normalized_splitting_number(entry.ideal, e)
            assert rep.a_e == rep.s_e * rep.q ** (rep.dim + rep.alpha)


def test_splitting_length_denominator_invariant():
    for entry in CORPUS:
        rep = normalized_splitting_number(entry.ideal, 1)
        assert rep.q**rep.dim % rep.s_e.denominator == 0


def test_cusp_char_2_splitting_ideal_is_unit():
    # K = (f^7) for f = y^2 - x^3 at q = 8 lies in n^[8]: every generator of
    # K reduces to 0 modulo n^[8], so n^[8] : K is the whole ring and s_3 = 0
    ring = Ring(PrimeField(2), ("x", "y"))
    x, y = ring.gens()
    I = ring.ideal(y**2 - x**3)
    J = splitting_ideal(I, 3)
    assert J.is_unit_ideal() and J.basis == (ring.one(),)
    assert normalized_splitting_number(I, 3).splitting_length == 0


@pytest.mark.parametrize("field", [PrimeField(3), RationalFunctionField(3, ("t",))],
                         ids=["F3", "F3(t)"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_zero_variable_ring(field, e):
    # S = k, n = (0) and I = (0): J = 0 : K is the zero ideal, the dual count
    # is q^0 minus the length of S / K = 0, and s_e = 1 at every e, on the
    # Gorenstein route too
    ring = Ring(field, ())
    I = ring.ideal()
    J = splitting_ideal(I, e)
    assert not J.basis and J.basis == ()
    rep = normalized_splitting_number(I, e)  # its dual length is held equal to this one
    assert (rep.splitting_length, rep.dim, rep.s_e) == (1, 0, 1)
    # n = (0) annihilates all of S/I = k, so the socle is k, spanned by 1
    assert socle_generator(I, ()) == ring.one()
    assert gorenstein_splitting_number(I, (), e) == rep


def test_cost_guard_bounds_q_without_variables():
    # q^0 = 1 at every e, but q and a_e are reported: q itself stays in budget
    I = Ring(RationalFunctionField(3, ("t",)), ()).ideal()
    assert normalized_splitting_number(I, 12).q == 3**12
    with pytest.raises(CostGuardExceeded, match=r"^q = 3\^13 exceeds"):
        normalized_splitting_number(I, 13)
    with pytest.raises(CostGuardExceeded, match=r"^q = 3\^10000 exceeds"):
        normalized_splitting_number(I, 10**4)


@st.composite
def homogeneous_cases(draw):
    """(p, n, generators as {exponents: coefficient}): 1-2 forms of degree 1-2."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(1, 2))
        monos = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]
        gens.append(draw(st.dictionaries(
            st.sampled_from(monos), st.integers(1, p - 1), min_size=1, max_size=3
        )))
    return p, n, gens


def _substituted(ring, terms, images):
    """sum c * prod images[i]^a_i over the terms, built with ring arithmetic."""
    out = ring.zero()
    for exps, c in terms.items():
        mono = ring.from_int(c)
        for v, a in zip(images, exps):
            mono = mono * v**a
        out = out + mono
    return out


@settings(max_examples=12, deadline=None)
@given(homogeneous_cases(), st.sampled_from([1, 2]), st.data())
def test_metamorphic_relations(case, e, data):
    p, n, gens = case
    q = p**e
    names = ("x", "y", "z", "w")[: n + 1]
    base = Ring(PrimeField(p), names[:n])
    rep = normalized_splitting_number(
        base.ideal(*(_substituted(base, g, base.gens()) for g in gens)), e
    )
    # a free variable: S[w]/I S[w] has q times the length and one more dimension
    wider = Ring(PrimeField(p), names)
    free = normalized_splitting_number(
        wider.ideal(*(_substituted(wider, g, wider.gens()[:n]) for g in gens)), e
    )
    assert (free.splitting_length, free.dim, free.s_e) == (
        rep.splitting_length * q, rep.dim + 1, rep.s_e
    )
    # F_p -> F_p(t): the same generators, one more transcendental
    ft = Ring(RationalFunctionField(p, ("t",)), names[:n])
    over_t = normalized_splitting_number(
        ft.ideal(*(_substituted(ft, g, ft.gens()) for g in gens)), e
    )
    assert (over_t.splitting_length, over_t.dim, over_t.s_e) == (
        rep.splitting_length, rep.dim, rep.s_e
    )
    assert (over_t.alpha, over_t.a_e) == (rep.alpha + 1, rep.a_e * q)
    # x_i -> d_i x_pi(i) + sum_{j > i} a_ij x_pi(j) with d_i != 0 is invertible
    # and linear, so it is a graded automorphism fixing the origin and n^[q]
    perm = data.draw(st.permutations(range(n)))
    x = base.gens()
    images = []
    for i in range(n):
        v = data.draw(st.integers(1, p - 1)) * x[perm[i]]
        for j in range(i + 1, n):
            v = v + data.draw(st.integers(0, p - 1)) * x[perm[j]]
        images.append(v)
    moved = base.ideal(*(_substituted(base, g, images) for g in gens))
    assert normalized_splitting_number(moved, e) == rep
    # a solved-out variable: S[w]/(I, w - c*m) = S/I for a monomial m of positive
    # degree or m = 0, so the solved ring must give the same numbers, and
    # splitting_ideal, which keeps the given presentation, the same length
    m = data.draw(st.one_of(st.just(None), st.tuples(*[st.integers(0, 2)] * n).filter(any)))
    for field, same in ((PrimeField(p), rep), (ft.field, over_t)):
        ring = Ring(field, names)
        old, w = ring.gens()[:n], ring.gens()[n]
        c = ring.constant(field.transcendental("t")) if field.transcendentals else ring.one()
        image = ring.zero() if m is None else c * ring.monomial(m + (0,))
        I = ring.ideal(*(_substituted(ring, g, old) for g in gens), w - image)
        assert splitting._eliminate_linear(I, e).ring.nvars < ring.nvars
        got = normalized_splitting_number(I, e)
        assert got == same
        assert got.splitting_length == length(splitting_ideal(I, e))


def test_eliminate_linear_rules():
    R = Ring(PrimeField(3), ("x", "y", "z"))
    x, y, z = R.gens()
    solve = splitting._eliminate_linear
    # x_i in h, h of two terms, no term c*x_i alone: nothing is solved
    for I in (R.ideal(y - y**2), R.ideal(x - y**2 - z**2), R.ideal(x * y - x * z)):
        assert solve(I, 1) is I
    Ryz, Ry = Ring(PrimeField(3), ("y", "z")), Ring(PrimeField(3), ("y",))
    y2, z2 = Ryz.gens()
    (y1,) = Ry.gens()
    # x := y^2 into z^2 - x*y; a lone 2*x sends x to 0
    assert solve(R.ideal(x - y**2, z**2 - x * y), 1) == Ryz.ideal(z2**2 - y2**3)
    assert solve(R.ideal(2 * x, x * y + z**3), 1) == Ryz.ideal(z2**3)
    # a generator that qualifies only after a substitution: x := y*z leaves z
    # of z - x + y*z, and then z := 0
    assert solve(R.ideal(x - y * z, z - x + y * z, x**2 + y**5), 1) == Ry.ideal(y1**5)
    # x := y^2 would take x^40000*z to y^80000*z, past 16-bit exponents: x is kept
    I = R.ideal(x - y**2, x**40000 * z)
    assert solve(I, 0) is I
    # ... while z, solved from the other generator, still goes
    I = R.ideal(x - y**2, z - x**40000)
    assert solve(I, 0) == Ring(PrimeField(3), ("y",)).ideal()


def test_eliminate_linear_keeps_the_bracket_power_in_range():
    # x := y^300 takes x^200*z to y^60000*z; I^[2] of the given presentation
    # has exponents up to 400, of the solved one 120000: x is kept at e >= 1
    R = Ring(PrimeField(2), ("x", "y", "z"))
    x, y, z = R.gens()
    I = R.ideal(x - y**300, x**200 * z, z**2)
    assert splitting._eliminate_linear(I, 1) is I
    assert splitting._eliminate_linear(I, 0).ring.variables == ("y", "z")
    rep = normalized_splitting_number(I, 1)
    assert (rep.splitting_length, rep.dim) == (0, 1)
    sweep = f_signature_sequence(I, 2)
    assert [r.splitting_length for r in sweep.reports] == [1, 0, 0]


# -- the product relation: disjoint variables multiply lengths -------------------
#
# For I in k[x] and J in k[y], S = k[x, y] and q = p^e, (I + J)^[q] : (I + J)
# = K_I*K_J + I^[q] + J^[q] and S/n^[q] is the tensor product of the two
# boxes, so lambda_e(I + J) = lambda_e(I)*lambda_e(J) over the factors' own
# rings, and dim S/(I + J) = dim k[x]/I + dim k[y]/J. Computed in the full
# ring, where a free variable multiplies lambda_e by q and adds 1 to the
# dimension, this reads lambda_e(I + J)*q^n = lambda_e(IS)*lambda_e(JS) and
# dim(I + J) + n = dim(IS) + dim(JS), with n the number of variables of S.
# Neither side uses a colon of the other, and I + J has at least two
# generators, so its K goes through colon_ideal, with F_p(t) coefficients
# where the field has them.

PRODUCT_NAMES = ("x", "y", "u", "v", "w")


def _product_check(field, I, J, e):
    """lambda_e(I + J) after checking the relation; I, J: callables on the gens."""
    ring = Ring(field, PRODUCT_NAMES)
    x, y, u, v, w = ring.gens()
    t = ring.constant(field.transcendental("t")) if field.transcendentals else ring.one()
    gi, gj = I(x, y, t), J(u, v, w, t)
    a, b, both = (normalized_splitting_number(ring.ideal(*g), e) for g in (gi, gj, gi + gj))
    q, n = field.characteristic**e, ring.nvars
    assert both.splitting_length * q**n == a.splitting_length * b.splitting_length
    assert both.dim + n == a.dim + b.dim
    return both.splitting_length


F3T = RationalFunctionField(3, ("t",))


@pytest.mark.parametrize(
    "field,I,J,lams",
    [
        # a nodal cubic times the A_1 cone: 1 * (q^2 + 1)/2
        (F3T, lambda x, y, t: [y**2 - t * x**3 - x**2],
         lambda u, v, w, t: [u * v - w**2], (5, 41)),
        # V(I) is two points, and the origin's local ring is the field: lambda = 1
        (F3T, lambda x, y, t: [x - t * y**2, y - y**2],
         lambda u, v, w, t: [u * v - w**2 + t * u**3], (5, 41)),
        (PrimeField(3), lambda x, y, t: [x, y - y**2],
         lambda u, v, w, t: [u * v - w**2 - w**3], (5, 41)),
        (PrimeField(2), lambda x, y, t: [x * y + x**3 + y**3],
         lambda u, v, w, t: [u * v + u**3, u * w], (1, 1)),
        (RationalFunctionField(2, ("t",)), lambda x, y, t: [x * y + t * x**3],
         lambda u, v, w, t: [u * (v + t * u**2), u * w], (1, 1)),
        (RationalFunctionField(5, ("t",)), lambda x, y, t: [y**2 - x**2 - t * x**3],
         lambda u, v, w, t: [u * v, u * w - t * u**2], (1,)),
    ],
    ids=["F3(t)-node-A1", "F3(t)-two-gens", "F3-point", "F2-node", "F2(t)-node", "F5(t)-node"],
)
def test_product_relation(field, I, J, lams):
    assert tuple(_product_check(field, I, J, e) for e in range(1, len(lams) + 1)) == lams


@st.composite
def product_factors(draw):
    """(field, I, J): a plane curve through the origin and one or two
    generators in (u, v, w), each a fixed lowest form plus terms of degree 3
    with coefficients c*t^k when the field has t."""
    p = draw(st.sampled_from([2, 3, 5]))
    field = draw(st.sampled_from([PrimeField(p), RationalFunctionField(p, ("t",))]))

    def higher(nvars):
        """Up to two terms c*t^k*(a cubic monomial), as (k, c, variable indices)."""
        return draw(st.lists(st.tuples(
            st.integers(0, 2), st.integers(1, p - 1), st.lists(st.integers(0, nvars - 1),
                                                               min_size=3, max_size=3),
        ), max_size=2))

    def build(terms, gens, t):
        out = 0
        for k, c, idx in terms:
            mono = t**k * c
            for i in idx:
                mono = mono * gens[i]
            out = out + mono
        return out

    curve, hi = draw(st.sampled_from(["node", "cusp", "tacnode"])), higher(2)
    cone, hj = draw(st.sampled_from(["A1", "plane+line", "cross"])), higher(3)

    def I(x, y, t):
        low = {"node": x * y, "cusp": y**2 - x**3, "tacnode": y**2 - x**4}[curve]
        return [low + build(hi, (x, y), t)]

    def J(u, v, w, t):
        gens = {"A1": [u * v - w**2], "plane+line": [u * v, u * w], "cross": [u * v * w]}[cone]
        return [gens[0] + build(hj, (u, v, w), t)] + gens[1:]

    return field, I, J


@settings(max_examples=20, deadline=None)
@given(product_factors())
def test_product_relation_on_drawn_factors(factors):
    _product_check(*factors, 1)
