"""Ideal operations: sums, bracket powers, intersections, colon ideals."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsplit import (
    GREVLEX,
    LEX,
    ExponentOverflow,
    InternalInconsistency,
    MonomialOrder,
    PrimeField,
    RationalFunctionField,
    Ring,
    ZeroDivisorColon,
    buchberger,
    colon_ideal,
    frobenius_power,
    ideal_member,
    ideal_sum,
    intersect,
    krull_dimension,
    normalized_splitting_number,
    splitting_ideal,
    validate_reduced_gb,
)
from fsplit.groebner import _internal, _to_poly
import fsplit.ideals
from fsplit.ideals import _divide, _multiply
from fsplit.splitting import _colon_multiplier
from test_groebner import _function_field_coefficient

R2 = Ring(PrimeField(2), ("x", "y"))
R5 = Ring(PrimeField(5), ("x", "y"))


def same_ideal(gb1, gb2) -> bool:
    return all(ideal_member(g, gb2) for g in gb1.basis) and all(
        ideal_member(g, gb1) for g in gb2.basis
    )


def test_ideal_sum():
    x, y = R5.gens()
    s = ideal_sum(R5.ideal(x), R5.ideal(y))
    assert s.generators == (x, y)
    assert ideal_sum(R5.ideal(x), R5.ideal()).generators == (x,)
    gb = buchberger(ideal_sum(R5.ideal(x**2), R5.ideal(x)))
    assert gb.basis == (x,)


def test_frobenius_power_examples():
    x, y = R2.gens()
    assert frobenius_power(R2.ideal(x * y), 1).generators == (x**2 * y**2,)
    I = R5.ideal(R5.var("x") * R5.var("y") - 1)
    assert frobenius_power(I, 0) == I
    x5, y5 = R5.gens()
    f = y5**2 - x5**3
    assert frobenius_power(R5.ideal(f), 1).generators == (y5**10 - x5**15,)


def test_bracket_power_record():
    x, _ = R5.gens()
    assert frobenius_power(R5.ideal(x), 2).generators == (x**25,)


def test_bracket_power_composes():
    x, y = R2.gens()
    I = R2.ideal(x + y, x * y)
    a_then_b = frobenius_power(frobenius_power(I, 1), 2)
    direct = frobenius_power(I, 3)
    assert same_ideal(buchberger(a_then_b), buchberger(direct))


def test_intersect_examples():
    x, y = R5.gens()
    assert intersect(R5.ideal(x), R5.ideal(y)).basis == (x * y,)
    assert intersect(R5.ideal(x), R5.ideal(x)).basis == (x,)
    gb = intersect(R5.ideal(x**2, x * y), R5.ideal(y))
    assert gb.basis == (x * y,)


def test_colon_examples():
    x, y = R5.gens()
    gb = colon_ideal(R5.ideal(x**2, y**2), R5.ideal(x * y))
    assert set(gb.basis) == {x, y}
    I = R5.ideal(x**2 + y, x * y)
    assert same_ideal(colon_ideal(I, R5.ideal(R5.one())), buchberger(I))
    f = y**2 - x**3
    gb = colon_ideal(frobenius_power(R5.ideal(f), 1), R5.ideal(f))
    assert same_ideal(gb, buchberger(R5.ideal(f**4)))


def test_colon_by_zero_rejected():
    x, _ = R5.gens()
    with pytest.raises(ZeroDivisorColon):
        colon_ideal(R5.ideal(x), R5.ideal())
    with pytest.raises(ZeroDivisorColon):
        colon_ideal(R5.ideal(x), R5.ideal(R5.zero()))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("expr_e", [1, 2])
def test_hypersurface_colon_law(p, expr_e):
    # (f^[q] : f) = (f^(q-1)) for a corpus of f, since S is a UFD
    ring = Ring(PrimeField(p), ("x", "y"))
    x, y = ring.gens()
    q = p**expr_e
    corpus = [x, x * y, x + y, y**2 - x**3, x**2 - y**2]
    for f in corpus:
        got = colon_ideal(frobenius_power(ring.ideal(f), expr_e), ring.ideal(f))
        want = buchberger(ring.ideal(f ** (q - 1)))
        assert same_ideal(got, want), (p, expr_e, str(f))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
def test_principal_colon_multiplier_closed_form(p, e):
    # K + n^[q] from _colon_multiplier against the elimination route, on the
    # corpus of test_hypersurface_colon_law and one F_p(t) generator: both
    # routes only see K modulo n^[q], so the reduced bases must be equal
    ring = Ring(PrimeField(p), ("x", "y"))
    x, y = ring.gens()
    fpt = Ring(RationalFunctionField(p, ("t",)), ("x", "y"))
    u, v = fpt.gens()
    t = fpt.constant(fpt.field.transcendental("t"))
    for f in [x, x * y, x + y, y**2 - x**3, x**2 - y**2, v**2 - t * u**3]:
        I = f.ring.ideal(f)
        nq = frobenius_power(f.ring.variable_ideal(), e)
        got = buchberger(ideal_sum(_colon_multiplier(I, e), nq))
        want = buchberger(ideal_sum(colon_ideal(frobenius_power(I, e), I).presentation(), nq))
        assert got.basis == want.basis, (p, e, str(f))


def _without_high_terms(f, q):
    """f with every term that has an exponent >= q removed."""
    return f.ring.from_terms({x: c for x, c in f.terms if max(x, default=0) < q})


@st.composite
def principal_cases(draw):
    """(f, e): 1-3 terms of degree <= 2 per variable over F_2, F_3, F_5 or F_3(t)."""
    field = draw(st.sampled_from([
        PrimeField(2), PrimeField(3), PrimeField(5), RationalFunctionField(3, ("t",))
    ]))
    p = field.characteristic
    n = draw(st.integers(1, 3))
    ring = Ring(field, ("x", "y", "z")[:n])
    f = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        c = ring.from_int(draw(st.integers(1, p - 1)))
        if field.transcendentals:
            t = ring.constant(field.transcendental("t"))
            c = c * t ** draw(st.integers(0, 2))
        f = f + c * ring.monomial(draw(st.tuples(*[st.integers(0, 2)] * n)))
    assume(not f.is_zero())
    return f, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(principal_cases())
def test_principal_colon_multiplier_is_truncated_power(case):
    # the truncated Frobenius product equals the full f^(q-1), with every
    # term that has an exponent >= q removed; test_poly holds ** to repeated
    # multiplication
    f, e = case
    q = f.ring.field.characteristic**e
    want = _without_high_terms(f ** (q - 1), q)
    got = _colon_multiplier(f.ring.ideal(f), e).generators
    if want.is_zero():
        assert got == frobenius_power(f.ring.variable_ideal(), e).generators
    else:
        assert got == (want,)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_cusp_at_two_truncates_to_zero(e):
    # (y^2 - x^3)^(q-1) lies in n^[q] at p = 2, so K modulo n^[q] is n^[q],
    # and both routes give lambda = 0
    x, y = R2.gens()
    I = R2.ideal(y**2 - x**3)
    nq = frobenius_power(R2.variable_ideal(), e)
    assert _without_high_terms((y**2 - x**3) ** (2**e - 1), 2**e).is_zero()
    assert _colon_multiplier(I, e) == nq
    assert splitting_ideal(I, e).is_unit_ideal()
    assert normalized_splitting_number(I, e).splitting_length == 0


def test_containment_properties():
    rng = random.Random(3)
    ring = R5
    for _ in range(10):
        gens = []
        for _ in range(2):
            terms = {
                tuple(rng.randrange(3) for _ in range(2)): rng.randrange(1, 5)
                for _ in range(rng.randrange(1, 3))
            }
            g = ring.from_terms(terms)
            if not g.is_zero():
                gens.append(g)
        if len(gens) < 2:
            continue
        I, J = ring.ideal(gens[0]), ring.ideal(gens[1])
        gb_I = buchberger(I)
        colon = colon_ideal(I, J)
        for g in gb_I.basis:
            assert ideal_member(g, colon)  # I subset (I : J)
        gb_sum = buchberger(ideal_sum(I, J))
        for g in gb_I.basis:
            assert ideal_member(g, gb_sum)  # I subset I + J
        inter = intersect(I, J)
        for g in inter.basis:
            assert ideal_member(g, gb_I)  # I cap J subset I


def test_colon_intersection_duality():
    rng = random.Random(9)
    ring = R2
    x, y = ring.gens()
    for _ in range(8):
        f = ring.from_terms({
            tuple(rng.randrange(3) for _ in range(2)): 1 for _ in range(rng.randrange(1, 3))
        })
        g = ring.from_terms({
            tuple(rng.randrange(3) for _ in range(2)): 1 for _ in range(rng.randrange(1, 3))
        })
        if f.is_zero() or g.is_zero():
            continue
        I = ring.ideal(x**2 * y, x * y**2)
        joint = colon_ideal(I, ring.ideal(f, g))
        left = colon_ideal(I, ring.ideal(f))
        right = colon_ideal(I, ring.ideal(g))
        expected = intersect(left.presentation(), right.presentation())
        assert same_ideal(joint, expected)


def _divide_exact(f, g):
    """f/g through ``ideals._divide`` on working forms under the ring order."""
    ring, order = f.ring, f.ring.order
    quotient = _divide(ring, order, _internal(f, order.key), _internal(g, order.key))
    return _to_poly(ring, order, quotient)


def test_divide_exact_detects_corruption():
    x, y = R5.gens()
    assert _divide_exact((x + y) * (x - y), x + y) == x - y
    with pytest.raises(InternalInconsistency, match=r"x\^2 \+ y is not divisible by x"):
        _divide_exact(x**2 + y, x)


def test_divide_exact_exponent_overflow_shows_true_exponents():
    ring = Ring(PrimeField(5), ("x", "y"), LEX)
    x, y = ring.gens()
    # the second quotient term y^40000 times the tail y^40000 leaves the range
    with pytest.raises(ExponentOverflow, match=r"\(0, 80000\)"):
        _divide_exact(x**2, x - y**40000)
    with pytest.raises(ExponentOverflow, match=r"\(0, 80000\)"):
        _divide_exact(x**2 + x * y**14464, x - y**40000)


def _multiply_terms(f, g):
    """f*g through ``ideals._multiply`` on working forms under the ring order."""
    ring, order = f.ring, f.ring.order
    product = _multiply(ring, order, _internal(f, order.key), _internal(g, order.key))
    return _to_poly(ring, order, product)


@pytest.mark.parametrize("order", [GREVLEX, LEX, MonomialOrder.elimination(1)], ids=repr)
def test_multiply_is_the_polynomial_product(order):
    rng = random.Random(17)
    for field in (PrimeField(5), RationalFunctionField(3, ("t",))):
        ring = Ring(field, ("x", "y", "z"), order)
        coefficient = _function_field_coefficient(field) if field.transcendentals else None
        for _ in range(10):
            f, g = (_random_poly(rng, ring, 3, coefficient) for _ in range(2))
            assert _multiply_terms(f, g) == f * g
        x, y, _ = ring.gens()
        assert _multiply_terms(x + y, x - y) == x**2 - y**2  # the cross terms cancel


def test_multiply_exponent_overflow_shows_true_exponents():
    x, y = R5.gens()
    with pytest.raises(ExponentOverflow, match=r"\(1, 80000\)"):
        _multiply_terms(x + y**40000, x * y**40000)


def test_colon_runs_one_elimination_per_generator(monkeypatch):
    # the running colon meets each generator left after the normal form mod I
    # in one elimination, with no intersection to fold the results together
    ring = Ring(PrimeField(3), ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    I = ring.ideal(x * z - y**2, y * w - z**2, x * w - y * z)
    elim = MonomialOrder.elimination(1)
    eliminations = []

    def counted(J, *args, **kwargs):
        if J.ring.order == elim:
            eliminations.append(1)
        return buchberger(J, *args, **kwargs)

    monkeypatch.setattr(fsplit.ideals, "buchberger", counted)
    K = colon_ideal(frobenius_power(I, 2), I)
    assert len(eliminations) == 3
    # the primal colon n^[9] : K: three of K's five generators lie in n^[9]
    nq = buchberger(frobenius_power(ring.variable_ideal(), 2))
    outside = [g for g in K.basis if not ideal_member(g, nq)]
    assert (len(K.basis), len(outside)) == (5, 2)
    eliminations.clear()
    colon_ideal(nq, K)
    assert len(eliminations) == 2


def _random_poly(rng, ring, max_exp=2, coefficient=None):
    field = ring.field
    if coefficient is None:
        coefficient = lambda rng: field.from_int(rng.randrange(1, field.characteristic))
    while True:  # no constant term, so ideals of these stay proper
        exps = [tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars)) for _ in range(3)]
        f = ring.from_terms({e: coefficient(rng) for e in exps[: rng.randrange(1, 4)] if any(e)})
        if not f.is_zero():
            return f


# F_p and F_3(t), under grevlex and under lex (where intersect() lifts and
# projects through from_terms instead of keeping the term order)
RANDOM_RINGS = [
    pytest.param(p, None, order, id=f"{p}-{order!r}")
    for p in (2, 3, 5)
    for order in (GREVLEX, LEX)
] + [pytest.param(3, "t", order, id=f"fpt-3-{order!r}") for order in (GREVLEX, LEX)]


def _random_ring(p, transcendental, order):
    if transcendental is None:
        return Ring(PrimeField(p), ("x", "y"), order), None
    field = RationalFunctionField(p, (transcendental,))
    return Ring(field, ("x", "y"), order), _function_field_coefficient(field)


@pytest.mark.parametrize("p, transcendental, order", RANDOM_RINGS)
def test_intersect_basis_is_reduced_grevlex(p, transcendental, order):
    # the t-free part of the elimination basis is returned without a second
    # Buchberger run: it must already be the reduced grevlex basis of I cap J
    ring, coefficient = _random_ring(p, transcendental, order)
    rng = random.Random(p * 7 + (transcendental is not None) + 2 * (order == LEX))
    for _ in range(6):
        I = ring.ideal(*(_random_poly(rng, ring, coefficient=coefficient) for _ in range(2)))
        J = ring.ideal(_random_poly(rng, ring, coefficient=coefficient))
        gb = intersect(I, J)
        assert gb.ring == ring and gb.order == GREVLEX
        validate_reduced_gb(gb)
        assert gb == buchberger(gb.presentation(), GREVLEX)
        gb_I, gb_J = buchberger(I), buchberger(J)
        assert all(ideal_member(g, gb_I) and ideal_member(g, gb_J) for g in gb.basis)


@st.composite
def intersection_cases(draw):
    """I and J in two or three variables over F_2, F_3 or F_3(t); either may
    be the zero or the unit ideal."""
    field = draw(st.sampled_from(
        [PrimeField(2), PrimeField(3), RationalFunctionField(3, ("t",))]
    ))
    n = draw(st.integers(2, 3))
    ring = Ring(field, ("x", "y", "z")[:n])
    p = field.characteristic
    # F_3(t) coefficients grow fast in an elimination, so its inputs are smaller
    max_terms, max_exp = (2, 2) if field.transcendentals else (3, 3)

    def poly():
        f = ring.zero()
        for _ in range(draw(st.integers(1, max_terms))):
            c = ring.from_int(draw(st.integers(1, p - 1)))
            if field.transcendentals:
                c = c * ring.constant(field.transcendental("t")) ** draw(st.integers(0, 2))
            f = f + c * ring.monomial(draw(st.tuples(*[st.integers(0, max_exp)] * n)))
        return f

    def ideal():
        kind = draw(st.sampled_from(["zero", "unit", "random", "random"]))
        if kind == "zero":
            return ring.ideal()
        if kind == "unit":
            return ring.ideal(poly(), ring.one())
        return ring.ideal(*(poly() for _ in range(draw(st.integers(1, 2)))))

    return ideal(), ideal()


@given(intersection_cases())
def test_intersect_equals_the_t_free_part_of_a_full_elimination(case):
    # intersect interreduces only the t-free block of the elim(1) basis of
    # t*I + (t - 1)*J. The reference builds its own elim(1) ring, with a
    # variable u that no case uses in the role of t, runs the full Buchberger
    # on that ideal, built as Polynomials, and projects the u-free part of its
    # reduced basis.
    I, J = case
    ring = I.ring
    ext = Ring(ring.field, ("u",) + ring.variables, MonomialOrder.elimination(1))
    t = ext.gens()[0]

    def lift(f):
        return ext.from_terms({(0,) + e: c for e, c in f.terms})

    gens = [t * lift(f) for f in I.generators] + [(t - 1) * lift(g) for g in J.generators]
    full = buchberger(ext.ideal(*gens))
    validate_reduced_gb(full)
    projected = [
        ring.from_terms({e[1:]: c for e, c in g.terms})
        for g in full.basis
        if g.leading_term(full.order)[0][0] == 0
    ]
    assert intersect(I, J)._terms == tuple(_internal(g, GREVLEX.key) for g in projected)


@pytest.mark.parametrize("p, transcendental, order", RANDOM_RINGS)
def test_colon_invariant_modulo_I(p, transcendental, order):
    # (I : f) = (I : f + h*g) for g in I; J inside I gives S; a generator of
    # J that lies in I changes nothing
    ring, coefficient = _random_ring(p, transcendental, order)
    unit = (ring.one(),)
    rng = random.Random(p * 11 + (transcendental is not None) + 2 * (order == LEX))
    # F_3(t) eliminations of degree-6 generators take up to a second each,
    # so I has lower degree there
    max_exp = 3 if transcendental is None else 2
    for _ in range(6):
        g1, g2 = (_random_poly(rng, ring, max_exp, coefficient) for _ in range(2))
        f, h1, h2 = (_random_poly(rng, ring, coefficient=coefficient) for _ in range(3))
        I = ring.ideal(g1, g2)
        base = colon_ideal(I, ring.ideal(f))
        assert colon_ideal(I, ring.ideal(f + h1 * g1)) == base
        assert colon_ideal(I, ring.ideal(f + h1 * g1 + h2 * g2)) == base
        assert colon_ideal(I, ring.ideal(h1 * g1, h2 * g2 + h1 * g1)).basis == unit
        assert colon_ideal(I, ring.ideal(g2)).basis == unit
        assert colon_ideal(I, ring.ideal(f, h2 * g2)) == base
        assert colon_ideal(I, ring.ideal(h2 * g2, f)) == base


@pytest.mark.parametrize("p, transcendental, order", RANDOM_RINGS)
def test_reduced_basis_arguments_stand_for_their_presentations(p, transcendental, order):
    # intersect and colon_ideal take a ReducedGB for either ideal; a reduced
    # grevlex basis of I skips colon_ideal's own Buchberger run
    ring, coefficient = _random_ring(p, transcendental, order)
    rng = random.Random(p * 13 + (transcendental is not None) + 2 * (order == LEX))
    for _ in range(3):
        I = ring.ideal(*(_random_poly(rng, ring, coefficient=coefficient) for _ in range(2)))
        J = ring.ideal(*(_random_poly(rng, ring, coefficient=coefficient) for _ in range(2)))
        for gb_I in (buchberger(I, GREVLEX), buchberger(I)):
            P = gb_I.presentation()
            assert intersect(gb_I, J) == intersect(P, J)
            assert colon_ideal(gb_I, J) == colon_ideal(P, J)
        gb_J = buchberger(J)
        assert intersect(I, gb_J) == intersect(I, gb_J.presentation())
        assert colon_ideal(I, gb_J) == colon_ideal(I, gb_J.presentation())


FEDDER_CASES = {
    "xy,zw": (("x", "y", "z", "w"), lambda x, y, z, w: (x * y, z * w)),
    "x2-yz,y2-xz": (("x", "y", "z"), lambda x, y, z: (x**2 - y * z, y**2 - x * z)),
    "x2,y3": (("x", "y"), lambda x, y: (x**2, y**3)),
    "xy-z3,x2+y2": (("x", "y", "z"), lambda x, y, z: (x * y - z**3, x**2 + y**2)),
}


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", sorted(FEDDER_CASES))
def test_complete_intersection_colon_is_fedders(case, p, e):
    # Fedder (Trans. AMS 1983): for a complete intersection I = (f_1, ..., f_c),
    # (I^[q] : I) = I^[q] + ((f_1 ... f_c)^(q - 1)); an independent K
    names, make = FEDDER_CASES[case]
    ring = Ring(PrimeField(p), names)
    gens = make(*ring.gens())
    I = ring.ideal(*gens)
    assert len(gens) == ring.nvars - krull_dimension(buchberger(I))
    prod = ring.one()
    for f in gens:
        prod = prod * f
    q = p**e
    Iq = frobenius_power(I, e)
    expected = buchberger(ideal_sum(Iq, ring.ideal(prod ** (q - 1))))
    assert colon_ideal(Iq, I).basis == expected.basis


def test_elimination_variable_takes_no_name_from_the_ring():
    # intersect's auxiliary variable must not collide with a ring variable or
    # a transcendental, whatever they are called
    def run(names):
        field = RationalFunctionField(3, ("t'",))
        ring = Ring(field, names)
        a, b, c = ring.gens()
        s = ring.constant(field.transcendental("t'"))
        w = c - s * b
        I = ring.ideal(a * b, b * w, a * w)
        J = ring.ideal(a**2 + s * b, b * c)
        gb_cap, gb_colon = intersect(I, J), colon_ideal(I, J)
        assert gb_cap.ring == ring and gb_colon.ring == ring
        lengths = [normalized_splitting_number(I, e).splitting_length for e in (1, 2)]
        return gb_cap._terms, gb_colon._terms, lengths

    assert run(("t_elim__", "t", "t_")) == run(("x", "y", "z"))
