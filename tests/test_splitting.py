"""The core formulas: splitting ideals, reports, both routes, signatures."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fsplit import (
    CostGuardExceeded,
    InvalidSocle,
    NotArtinian,
    NotContaining,
    NotGorenstein,
    PrimeField,
    RationalFunctionField,
    Ring,
    SplittingReport,
    buchberger,
    dual_splitting_length,
    f_signature_sequence,
    gorenstein_splitting_number,
    hypersurface_is_fpure,
    ideal_member,
    normal_form,
    normalized_splitting_number,
    regularity_test,
    socle_generator,
    splitting_ideal,
)
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
    x2, y2 = R2.gens()
    assert dual_splitting_length(R2.ideal(), 1) == 4
    assert dual_splitting_length(R2.ideal(x2 * y2), 1) == 1
    x5, y5 = R5.gens()
    assert dual_splitting_length(R5.ideal(y5**2 - x5**3), 1) == 0


def test_unit_ideal_rejected_cleanly():
    x2, _ = R2.gens()
    with pytest.raises(NotArtinian):
        normalized_splitting_number(R2.ideal(x2, x2 + 1), 1)


R3 = Ring(PrimeField(3), ("x", "y"))


def test_ideal_off_the_origin_rejected():
    x, y = R3.gens()
    I = R3.ideal(x - 1)  # V(I) misses the origin, so s_e is undefined there
    for route in (normalized_splitting_number, splitting_ideal, dual_splitting_length):
        with pytest.raises(NotContaining):
            route(I, 1)
    with pytest.raises(NotContaining):
        gorenstein_splitting_number(I, (y,), 1)
    with pytest.raises(NotContaining):
        gorenstein_splitting_number(I, (y,), 1, u=R3.one())
    with pytest.raises(NotContaining):
        socle_generator(I, (y,))


def test_ideal_through_the_origin_not_rejected():
    # (x, y) cap (x - 1): no generator has a constant term, so the check
    # passes; the local dimension at the origin is a separate open defect
    x, y = R3.gens()
    rep = normalized_splitting_number(R3.ideal(x**2 - x, x * y - y), 1)
    assert isinstance(rep, SplittingReport)


def test_s_zero_is_one_everywhere():
    for entry in CORPUS:
        rep = normalized_splitting_number(entry.ideal, 0)
        assert rep.s_e == 1, entry.name


def test_corpus_pinned_values():
    for entry in CORPUS:
        for e, expected in entry.expected_s.items():
            if e > 2 and entry.ring.nvars > 2:
                continue  # q^n above the default budget; covered in acceptance
            rep = normalized_splitting_number(entry.ideal, e)
            assert rep.s_e == expected, (entry.name, e, rep.s_e)


def test_regularity_examples():
    assert regularity_test(R5.ideal(), 1)
    x2, y2 = R2.gens()
    assert not regularity_test(R2.ideal(x2 * y2), 1)
    R3 = Ring(PrimeField(3), ("x", "y"))
    assert regularity_test(R3.ideal(R3.var("x")), 1)
    with pytest.raises(ValueError):
        regularity_test(R5.ideal(), 0)


def test_regularity_same_answer_for_e1_e2():
    for entry in CORPUS:
        if entry.ring.nvars > 2:
            continue
        assert regularity_test(entry.ideal, 1) == regularity_test(entry.ideal, 2), entry.name


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


def test_cost_guard_partial_results():
    x2, y2 = R2.gens()
    with pytest.raises(CostGuardExceeded) as info:
        f_signature_sequence(R2.ideal(x2 * y2), 5, budget=10)
    partial = info.value.partial
    assert partial is not None
    assert partial.values() == (1, Fraction(1, 2))  # e = 0, 1 fit in a budget of 10


def test_report_json_roundtrip():
    rep = normalized_splitting_number(R2.ideal(R2.var("x") * R2.var("y")), 1)
    assert SplittingReport.from_json_obj(rep.to_json_obj()) == rep
    from fsplit import SignatureEstimate

    est = f_signature_sequence(R2.ideal(R2.var("x") * R2.var("y")), 2)
    assert SignatureEstimate.from_json_obj(est.to_json_obj()) == est


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
    # is q^0 minus the length of S / K = 0, and s_e = 1 at every e
    ring = Ring(field, ())
    I = ring.ideal()
    J = splitting_ideal(I, e)
    assert J.is_zero_ideal() and J.basis == ()
    assert dual_splitting_length(I, e) == 1
    rep = normalized_splitting_number(I, e)
    assert (rep.splitting_length, rep.dim, rep.s_e) == (1, 0, 1)
