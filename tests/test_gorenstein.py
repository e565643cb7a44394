"""The Gorenstein route without elimination.

lambda(S / (B : w)) is read as lambda(S/B) - lambda(S/(B + (w))), from the
exact sequence 0 -> S/(B : w) -(*w)-> S/B -> S/(B + (w)) -> 0, and the socle
of S/A as the common kernel of multiplication by the variables. Each is held
here to ``colon_ideal``, which stays the ground truth.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsplit import (
    GREVLEX,
    CostGuardExceeded,
    InvalidSocle,
    NotGorenstein,
    PrimeField,
    RationalFunctionField,
    Ring,
    buchberger,
    colon_ideal,
    gorenstein_splitting_number,
    ideal_member,
    ideal_sum,
    normal_form,
    normalized_splitting_number,
    socle_generator,
)
from fsplit import groebner, ideals, splitting
from fsplit.artinian import length
from fsplit.groebner import interreduce
from fsplit.ringspec import parse_polynomials
from corpus import CORPUS, sop_polynomials

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), RationalFunctionField(3, ("t",))]


def _scalar(draw, ring):
    """A drawn nonzero constant: c in F_p, times t^k over F_3(t)."""
    field = ring.field
    c = ring.from_int(draw(st.integers(1, field.characteristic - 1)))
    if field.transcendentals:
        c = c * ring.constant(field.transcendental("t")) ** draw(st.integers(0, 2))
    return c


def _poly(draw, ring, max_exp, constant):
    """A drawn polynomial of up to three terms; ``constant`` allows the term 1."""
    f = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        c = _scalar(draw, ring)
        exps = draw(st.tuples(*[st.integers(0, max_exp)] * ring.nvars))
        if constant or any(exps):
            f = f + c * ring.monomial(exps)
    return f


@st.composite
def artinian_ideals(draw, constant=True):
    """A pure power x_i^k of every variable plus up to two drawn generators,
    over F_2, F_3, F_5 or F_3(t); without ``constant`` every generator lies
    in n, so the ideal is Artinian and contained in n."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from([2, 3, 1]))
    ring = Ring(field, ("x", "y", "z")[:n])
    # F_3(t) coefficients grow fast in an elimination, so its inputs are smaller
    max_exp = 2 if field.transcendentals else 3
    gens = [g**draw(st.integers(1, max_exp + 1)) for g in ring.gens()]
    gens += [_poly(draw, ring, max_exp, constant) for _ in range(draw(st.integers(0, 2)))]
    return ring.ideal(*gens)


@settings(max_examples=100, deadline=None)
@given(artinian_ideals(), st.data())
def test_colon_length_is_a_difference_of_two_staircase_counts(B, data):
    ring = B.ring
    w = _poly(data.draw, ring, 2, True)
    assume(not w.is_zero())
    W = ring.ideal(w)
    want = length(colon_ideal(B, W))
    assert want == length(buchberger(B, GREVLEX)) - length(buchberger(ideal_sum(B, W), GREVLEX))
    assert splitting._gorenstein_length(B, w) == want


def _reference_socle_generator(GA, C):
    """socle_generator's choice read off the colon basis C = (A : n)."""
    nfs = [normal_form(g, GA) for g in C.basis]
    nfs = [h for h in nfs if not h.is_zero()]
    return min(nfs, key=lambda h: GREVLEX.key(h.leading_term(GREVLEX)[0]))


def _assert_socle_matches_the_colon(I, sop):
    ring = I.ring
    GA = buchberger(ideal_sum(I, ring.ideal(*sop)), GREVLEX)
    colon = colon_ideal(GA, ring.variable_ideal())
    socle_dim = length(GA) - length(colon)
    if socle_dim != 1:
        with pytest.raises(NotGorenstein, match=f"dimension {socle_dim}, not 1"):
            socle_generator(I, sop)
        return
    # (A : n) = A + k*u: GA with the computed u is a Groebner basis of the colon
    GA2, u = splitting._socle_bases(I, tuple(sop), 10**6)
    C = interreduce(ring, GA2.basis + (u,), GREVLEX)
    assert (GA2, C) == (GA, colon)
    assert socle_generator(I, sop) == _reference_socle_generator(GA, colon)


def test_socle_basis_is_the_colon_basis_on_the_corpus():
    checked = 0
    for entry in CORPUS:
        if entry.gorenstein:
            _assert_socle_matches_the_colon(entry.ideal, sop_polynomials(entry))
            checked += 1
    assert checked >= 20


@settings(max_examples=100, deadline=None)
@given(artinian_ideals(constant=False))
def test_socle_basis_is_the_colon_basis_on_drawn_artinian_ideals(A):
    # zero-dimensional, so the sop is empty; a non-Gorenstein A must report
    # lambda_A - lambda(A : n) as its socle dimension
    _assert_socle_matches_the_colon(A, ())


def test_fat_point_reports_its_socle_dimension():
    ring = Ring(PrimeField(3), ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(NotGorenstein, match="^socle has vector-space dimension 2, not 1$"):
        socle_generator(ring.ideal(x**2, x * y, y**2), ())
    with pytest.raises(NotGorenstein, match="^socle has vector-space dimension 3, not 1$"):
        socle_generator(ring.ideal(x**3, x**2 * y, x * y**2, y**3), ())


@st.composite
def complete_intersections(draw):
    """x_i^k plus terms of lower degree in n, one generator per variable, over
    F_2, F_3, F_5 or F_3(t). The grevlex leads x_i^k are coprime, so the
    generators are a Groebner basis of an Artinian complete intersection
    inside n, and S/A is Gorenstein with the empty sop."""
    field = draw(st.sampled_from(FIELDS))
    ring = Ring(field, ("x", "y", "z")[: draw(st.sampled_from([1, 2, 3]))])
    gens = []
    for x in ring.gens():
        k = draw(st.integers(1, 3))
        g = x**k
        for _ in range(draw(st.integers(0, 2))):
            exps = draw(st.tuples(*[st.integers(0, k - 1)] * ring.nvars))
            if 0 < sum(exps) < k:
                g = g + _scalar(draw, ring) * ring.monomial(exps)
        gens.append(g)
    return ring.ideal(*gens)


def _supplied_socles(draw, I, sop) -> tuple:
    """(c*u0 + a, a, u0 + m) for u0 the computed socle generator, c a nonzero
    scalar, a in A = I + (sop) and m a monomial with a nonzero coefficient."""
    ring = I.ring
    u0 = socle_generator(I, sop)
    a = ring.zero()
    for g in I.generators + tuple(sop):
        if draw(st.booleans()):
            a = a + _poly(draw, ring, 2, True) * g
    m = ring.monomial(draw(st.tuples(*[st.integers(0, 3)] * ring.nvars)))
    return _scalar(draw, ring) * u0 + a, a, u0 + _scalar(draw, ring) * m


def _takes_supplied_socle(I, sop, u) -> bool:
    """Whether ``gorenstein_splitting_number`` takes u, held to the colon: it
    must take u exactly when u is outside A and inside (A : n), and then give
    the lambda of the computed socle at e = 1, 2; else raise the matching
    InvalidSocle."""
    ring = I.ring
    GA = buchberger(ideal_sum(I, ring.ideal(*sop)), GREVLEX)
    if normal_form(u, GA).is_zero():
        reason = "supplied socle element lies in the parameter ideal"
    elif not ideal_member(u, colon_ideal(GA, ring.variable_ideal())):
        reason = "supplied element does not annihilate the maximal ideal"
    else:
        for e in (1, 2):
            want = gorenstein_splitting_number(I, sop, e)
            assert gorenstein_splitting_number(I, sop, e, u) == want, (e, u)
        return True
    with pytest.raises(InvalidSocle, match=f"^{reason}$"):
        gorenstein_splitting_number(I, sop, 1, u)
    return False


def _assert_supplied_socles(draw, I, sop):
    scaled, in_A, moved = _supplied_socles(draw, I, sop)
    assert _takes_supplied_socle(I, sop, scaled)
    assert not _takes_supplied_socle(I, sop, in_A)
    _takes_supplied_socle(I, sop, moved)


@pytest.mark.parametrize("entry", [e for e in CORPUS if e.gorenstein], ids=lambda e: e.name)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_supplied_socle_is_checked_against_the_colon_on_the_corpus(entry, data):
    _assert_supplied_socles(data.draw, entry.ideal, sop_polynomials(entry))


@settings(max_examples=100, deadline=None)
@given(complete_intersections(), st.data())
def test_supplied_socle_is_checked_against_the_colon_on_complete_intersections(A, data):
    _assert_supplied_socles(data.draw, A, ())


# (field, variables, ideal, sop, socle generator, lambda at e = 1, 2); the
# lengths were measured on the colon route too
RATFUNC_CASES = [
    pytest.param(
        RationalFunctionField(3, ("s", "t")), ("x", "y", "z"), "x^2 - s*y*z + t*z^2",
        "y, z", "x", (5, 41), id="quadst-F3(s,t)",
    ),
    pytest.param(
        RationalFunctionField(2, ("t",)), ("a", "b", "c", "d"), "a*d - t*b*c",
        "a, d, b + c", "c", (6, 44), id="adtbc-F2(t)",
    ),
]


@pytest.mark.parametrize("field, names, ideal, sop, socle, lams", RATFUNC_CASES)
def test_gorenstein_route_over_rational_function_fields(field, names, ideal, sop, socle, lams):
    ring = Ring(field, names)
    I = ring.ideal(*parse_polynomials(ring, ideal))
    sop = parse_polynomials(ring, sop)
    u = socle_generator(I, sop)
    assert str(u) == socle
    for e, lam in zip((1, 2), lams):
        se = normalized_splitting_number(I, e)
        for given_u in (None, u):
            rep = gorenstein_splitting_number(I, sop, e, u=given_u)
            assert rep.splitting_length == lam
            assert rep == se, (e, given_u)


GORENSTEIN_CASES = [
    (PrimeField(3), ("x", "y", "z"), "x^2 - y*z", "y, z", 2, 41),
    (PrimeField(2), ("a", "b", "c", "d"), "a*d - b*c", "a, d, b + c", 3, 344),
    (PrimeField(5), ("x", "y"), "y^2 - x^3", "x", 1, 0),
    (RationalFunctionField(3, ("s", "t")), ("x", "y", "z"), "x^2 - s*y*z + t*z^2", "y, z", 2, 41),
]


@pytest.mark.parametrize("field, names, ideal, sop, e, lam", GORENSTEIN_CASES)
def test_gorenstein_route_makes_no_colon_and_no_elimination(
    monkeypatch, field, names, ideal, sop, e, lam
):
    ring = Ring(field, names)
    I = ring.ideal(*parse_polynomials(ring, ideal))
    sop = parse_polynomials(ring, sop)
    u = socle_generator(I, sop)

    def refuse(*args, **kwargs):
        raise AssertionError("colon_ideal or intersect on the Gorenstein route")

    for module in (ideals, splitting):
        for name in ("colon_ideal", "intersect"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    orders = []

    def recorded(ideal, order=None):
        orders.append(order or ideal.ring.order)
        return buchberger(ideal, order)

    for module in (groebner, ideals, splitting):
        monkeypatch.setattr(module, "buchberger", recorded)
    assert socle_generator(I, sop) == u
    for given_u in (None, u):
        assert gorenstein_splitting_number(I, sop, e, u=given_u).splitting_length == lam
    assert orders and set(orders) == {GREVLEX}


def test_socle_staircase_over_the_budget_is_refused_before_enumeration(monkeypatch):
    ring = Ring(PrimeField(2), ("x", "y"))
    x, y = ring.gens()
    I = ring.ideal()
    small = (x**3, y**3)  # a staircase of 9 monomials, socle x^2 y^2
    assert socle_generator(I, small, budget=9) == x**2 * y**2
    assert gorenstein_splitting_number(I, small, 0, budget=9).splitting_length == 1

    def refuse(*args, **kwargs):
        raise AssertionError("the staircase was enumerated")

    monkeypatch.setattr(splitting, "_nf", refuse)
    monkeypatch.setattr(splitting, "_kernel", refuse)
    huge = (x**4000, y**4000)  # 16,000,000 monomials, over the default budget
    calls = [
        (lambda: socle_generator(I, small, budget=8), 9, 8),
        (lambda: gorenstein_splitting_number(I, small, 0, budget=8), 9, 8),
        (lambda: gorenstein_splitting_number(I, small, 0, x**2 * y**2, budget=8), 9, 8),
        (lambda: socle_generator(I, huge), 16000000, 10**6),
        (lambda: gorenstein_splitting_number(I, huge, 1, u=ring.one()), 16000000, 10**6),
    ]
    for call, size, budget in calls:
        with pytest.raises(CostGuardExceeded, match=f"has {size} monomials, over the budget {budget}$"):
            call()
