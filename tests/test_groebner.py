"""Buchberger engine: examples, certificates, idempotence, order independence."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fsplit import (
    GREVLEX,
    LEX,
    ExponentOverflow,
    MonomialOrder,
    PrimeField,
    RationalFunctionField,
    Ring,
    buchberger,
    ideal_member,
    normal_form,
    s_polynomial,
    validate_reduced_gb,
)
from fsplit.groebner import (
    _key_degree,
    _lcm,
    _minimalize,
    _packed_lcm,
    _support,
    interreduce,
)
from fsplit.ideals import intersect
from fsplit.poly import _key_weights, guard_mask, pack, unpack
from fsplit.ringspec import parse_polynomial

R5 = Ring(PrimeField(5), ("x", "y"))
R3XYZ = Ring(PrimeField(3), ("x", "y", "z"))
X, Y = R5.gens()


def test_principal_monomial():
    gb = buchberger(R5.ideal(X))
    assert gb.basis == (X,)
    gb = buchberger(R5.ideal(X**2 * Y**2), GREVLEX)
    assert gb.basis == (X**2 * Y**2,)


def test_textbook_lex_example():
    gb = buchberger(R5.ideal(X * Y - 1, Y**2 - 1), LEX)
    # derived by hand: {x - y, y^2 - 1}; verify by mutual membership
    expected = buchberger(R5.ideal(X - Y, Y**2 - 1), LEX)
    assert all(ideal_member(g, expected) for g in gb.basis)
    assert all(ideal_member(g, gb) for g in expected.basis)
    assert len(gb.basis) == 2


def test_normal_form_examples():
    Rlex = Ring(PrimeField(5), ("x", "y"), LEX)
    x, y = Rlex.gens()
    gb = buchberger(Rlex.ideal(x**2 - y), LEX)
    nf = normal_form(x**2 * y, gb)
    assert nf == y**2
    # independent check: the difference factors through the generator exactly
    assert x**2 * y - y**2 == y * (x**2 - y)
    assert normal_form(gb.basis[0], gb).is_zero()
    units = buchberger(Rlex.ideal(x, y), LEX)
    assert normal_form(Rlex.one(), units) == Rlex.one()


def test_membership_examples():
    gb = buchberger(R5.ideal(X**2 - Y))
    assert ideal_member(X**2 * Y - Y**2, gb)
    assert ideal_member(R5.zero(), gb)
    assert not ideal_member(R5.one(), buchberger(R5.ideal(X, Y)))


def test_zero_and_unit_ideals():
    zero = buchberger(R5.ideal())
    assert not zero.basis
    assert normal_form(X + 1, zero) == X + 1
    unit = buchberger(R5.ideal(X, X + 1))
    assert unit.is_unit_ideal()
    assert ideal_member(Y**3, unit)


def test_determinism_byte_for_byte():
    gens = (X * Y - 1, Y**2 - 1, X**3 + 2 * Y)
    a = buchberger(R5.ideal(*gens))
    b = buchberger(R5.ideal(*gens))
    assert a == b
    assert [str(g) for g in a.basis] == [str(g) for g in b.basis]


def test_function_field_coefficients():
    field = RationalFunctionField(2, ("t",))
    R = Ring(field, ("x", "y"))
    x, y = R.gens()
    t = R.constant(field.transcendental("t"))
    gb = buchberger(R.ideal(t * x + y, x * y))
    validate_reduced_gb(gb)
    assert ideal_member(y**2, gb)  # y^2 = y(tx + y) - t(xy)


RLEX = Ring(PrimeField(5), ("x", "y"), LEX)


def test_buchberger_exponent_overflow_shows_true_exponents():
    x, y = RLEX.gens()
    # reducing the input x^2 by x - y^40000 reaches y^80000
    with pytest.raises(ExponentOverflow, match=r"\(0, 80000\)"):
        buchberger(RLEX.ideal(x - y**40000, x**2))
    # the S-pair of x*y^30000 and x - y^40000 shifts y^40000 by y^30000
    with pytest.raises(ExponentOverflow, match=r"\(0, 70000\)"):
        buchberger(RLEX.ideal(x * y**30000, x - y**40000))


def test_normal_form_exponent_overflow_shows_true_exponents():
    x, y = RLEX.gens()
    gb = buchberger(RLEX.ideal(x - y**40000))
    with pytest.raises(ExponentOverflow, match=r"\(0, 70000\)"):
        normal_form(x * y**30000, gb)
    # y^80000 has the lex key of x*y^14464, a term already present: the
    # overflow must raise rather than merge into that term
    with pytest.raises(ExponentOverflow, match=r"\(0, 80000\)"):
        normal_form(x**2 + x * y**14464, gb)


def _random_ideal(rng, ring, ngens=2, max_exp=3, coefficient=None):
    field = ring.field
    if coefficient is None:
        coefficient = lambda rng: field.from_int(rng.randrange(1, field.characteristic))
    gens = []
    for _ in range(ngens):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
            terms[exps] = coefficient(rng)
        g = ring.from_terms(terms)
        if not g.is_zero():
            gens.append(g)
    return ring.ideal(*gens)


def _function_field_coefficient(field):
    # c * t^k + d with c != 0: constants, monomials and binomials in t
    t = field.transcendental("t")
    p = field.characteristic

    def draw(rng):
        c = field.mul(field.from_int(rng.randrange(1, p)), field.pow(t, rng.randrange(3)))
        return field.add(c, field.from_int(rng.randrange(p)))

    return draw


# Two variables under the ring's grevlex, and the shape intersect() builds:
# one eliminated variable ahead of two kept ones under elimination(1).
CERTIFICATE_CASES = [pytest.param(p, "grevlex", id=str(p)) for p in (2, 3, 5)] + [
    pytest.param(p, "elim", id=f"elim-{p}") for p in (2, 3, 5)
] + [pytest.param(3, "elim-fpt", id="elim-fpt-3")]


@pytest.mark.parametrize("p, shape", CERTIFICATE_CASES)
def test_spoly_certificate_random(p, shape):
    coefficient, ngens = None, 3
    if shape == "grevlex":
        ring, ngens = Ring(PrimeField(p), ("x", "y")), 2
    elif shape == "elim":
        ring = Ring(PrimeField(p), ("w", "x", "y"), MonomialOrder.elimination(1))
    else:
        field = RationalFunctionField(p, ("t",))
        ring = Ring(field, ("w", "x", "y"), MonomialOrder.elimination(1))
        coefficient = _function_field_coefficient(field)
    rng = random.Random(p)
    for _ in range(15):
        gb = buchberger(_random_ideal(rng, ring, ngens, coefficient=coefficient))
        validate_reduced_gb(gb)
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                assert ideal_member(s_polynomial(gb.basis[i], gb.basis[j], gb.order), gb)


def test_normal_form_idempotent_randomized():
    rng = random.Random(11)
    ring = R5
    gbs = [
        buchberger(_random_ideal(rng, ring))
        for _ in range(6)
    ]
    for _ in range(250):
        terms = {
            tuple(rng.randrange(5) for _ in range(2)): rng.randrange(1, 5)
            for _ in range(rng.randrange(6))
        }
        f = ring.from_terms(terms)
        gb = gbs[rng.randrange(len(gbs))]
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf


@settings(max_examples=25)
@given(st.data())
def test_ideal_equality_is_order_independent(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    ring_g = Ring(PrimeField(p), ("x", "y"), GREVLEX)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    I = _random_ideal(rng, ring_g)
    gb_g = buchberger(I, GREVLEX)
    gb_l = buchberger(I, LEX)
    for g in gb_g.basis:
        assert ideal_member(g, gb_l)
    for g in gb_l.basis:
        assert ideal_member(g, gb_g)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_interreduce_matches_buchberger(order):
    # a reduced basis padded with scaled ideal members is still a Groebner
    # basis; interreduce must give back exactly the reduced basis
    ring = Ring(PrimeField(5), ("x", "y"), order)
    field = ring.field
    rng = random.Random(17)
    for _ in range(10):
        gb = buchberger(_random_ideal(rng, ring, 3), order)
        padded = [g.scale(field.from_int(rng.randrange(1, 5))) for g in gb.basis]
        for g in gb.basis:
            h = _random_ideal(rng, ring, 1).generators[0]
            padded.append(g * h + g.scale(field.from_int(2)))
        rng.shuffle(padded)
        assert interreduce(ring, padded, order) == gb
    assert interreduce(ring, [], order).basis == ()


@pytest.mark.parametrize(
    "transcendental, ring_order, order",
    [
        (None, GREVLEX, GREVLEX),
        (None, LEX, LEX),
        (None, LEX, GREVLEX),
        ("t", GREVLEX, GREVLEX),
        ("t", LEX, GREVLEX),
    ],
    ids=["grevlex", "lex", "grevlex-in-lex-ring", "fpt-grevlex", "fpt-grevlex-in-lex-ring"],
)
def test_reduced_gb_from_working_form_equals_one_from_polynomials(
    transcendental, ring_order, order
):
    # buchberger returns a basis held in working form, whose Polynomials are
    # built on first read; interreduce starts from Polynomials
    if transcendental is None:
        field, coefficient = PrimeField(5), None
    else:
        field = RationalFunctionField(3, (transcendental,))
        coefficient = _function_field_coefficient(field)
    ring = Ring(field, ("x", "y"), ring_order)
    rng = random.Random(29)
    for _ in range(8):
        ideal = _random_ideal(rng, ring, 3, 2, coefficient)
        packed = buchberger(ideal, order)
        built = interreduce(ring, buchberger(ideal, order).basis, order)
        assert packed == built and built == packed
        assert hash(packed) == hash(built)
        assert packed.leads == built.leads
        assert repr(packed) == repr(built)
        assert packed.basis == built.basis
        assert packed.is_unit_ideal() == built.is_unit_ideal()


# Three variables under grevlex and under the elimination(1) shape intersect()
# builds; test_interreduce_matches_buchberger covers two-variable rings.
INTERREDUCE_RINGS = [
    pytest.param(Ring(PrimeField(p), ("x", "y", "z")), id=f"grevlex-{p}") for p in (2, 3)
] + [
    pytest.param(
        Ring(PrimeField(p), ("w", "x", "y"), MonomialOrder.elimination(1)), id=f"elim-{p}"
    )
    for p in (2, 3)
]


@pytest.mark.parametrize("ring", INTERREDUCE_RINGS)
def test_buchberger_output_is_fully_interreduced(ring):
    # buchberger and interreduce share one interreduction, so each result is
    # also checked by validate_reduced_gb, which tests every term against
    # every other lead without the packed tail filter. The input generators
    # followed by the reduced basis are a Groebner basis, so both must give
    # the same reduced basis.
    rng = random.Random(ring.field.characteristic)
    for _ in range(20):
        ideal = _random_ideal(rng, ring, 3)
        gb = buchberger(ideal)
        again = interreduce(ring, list(ideal.generators) + list(gb.basis), ring.order)
        validate_reduced_gb(gb)
        validate_reduced_gb(again)
        assert again == gb


# fields near both ends of the 16-bit range, so either operand can be larger
_packed_field = st.one_of(st.integers(0, 3), st.integers(65532, 65535), st.integers(0, 65535))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_packed_field, min_size=n, max_size=n),
    st.lists(_packed_field, min_size=n, max_size=n),
)))
def test_packed_lcm_and_coprimality_match_tuples(ab):
    a, b = (tuple(v) for v in ab)
    G = guard_mask(len(a))
    pa, pb = pack(a), pack(b)
    assert unpack(_packed_lcm(pa, pb, G), len(a)) == _lcm(a, b)
    assert _packed_lcm(pa, pb, G) == _packed_lcm(pb, pa, G)
    coprime = not any(x and y for x, y in zip(a, b))
    assert (not _support(pa, G) & _support(pb, G)) == coprime


# small exponents, so that divisibility, duplicates and the unit monomial are common
_small_monomials = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple), max_size=12,
))


def _tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@given(_small_monomials)
@example([(1, 2), (0, 0), (1, 2), (3, 0)])  # a duplicate and the unit monomial 0
@example([])
def test_minimalize_matches_a_tuple_reference(gens):
    n = len(gens[0]) if gens else 1
    G = guard_mask(n)
    got = _minimalize([pack(e) for e in gens], G)
    # brute force: the distinct exponents that no other given exponent divides
    want = {e for e in gens if not any(f != e and _tuple_divides(f, e) for f in gens)}
    assert sorted(unpack(m, n) for m in got) == sorted(want)
    assert list(got) == sorted(got)
    for i, a in enumerate(got):
        for b in got[i + 1:]:
            assert not _tuple_divides(unpack(a, n), unpack(b, n))
    assert all(any(_tuple_divides(unpack(m, n), e) for m in got) for e in gens)


@pytest.mark.parametrize(
    "order", [LEX, GREVLEX, MonomialOrder.elimination(1), MonomialOrder.elimination(2)], ids=repr
)
@given(st.integers(3, 6).flatmap(lambda n: st.lists(_packed_field, min_size=n, max_size=n)))
def test_key_and_degree_from_a_packed_monomial(order, exps):
    # fields near 2^16 - 1 would show a carry from one field into the next
    n = len(exps)
    k0, weights = _key_weights(order.key, n)
    m = pack(exps)
    assert _key_degree(m, k0, weights) == (order.key(unpack(m, n)), sum(unpack(m, n)))


def _parse_ideal(ring, *texts):
    return ring.ideal(*(parse_polynomial(ring, s) for s in texts))


# Reduced bases recorded before the pair update was packed. A reduced basis
# is unique, so these do not see the order pairs are reduced in; they catch a
# pair update that drops a pair it needs (a wrong lcm, coprimality test or
# criterion), which leaves a different or non-Groebner basis. In the last two
# only a lead inserted after an element reduces its tail: y reduces x^2 - y*z,
# and t*b + t*c becomes t*b + c only in the final interreduction. The second
# input is the elim(1) ideal intersect() builds on ad - bc. In the last, the
# lead y*z that reduces x^3 + x^2*y + y^2*z is given before it and divides
# only its last tail term, so the tail's lcm must cover every tail term.
PINNED_BASES = [
    pytest.param(
        lambda: intersect(
            _parse_ideal(R3XYZ, "x*z - y^2", "y - z^2"),
            _parse_ideal(R3XYZ, "x^2 + y*z", "x*y - z^3"),
        ),
        "GB{x*z^3 + 2*y*z^3 + z^4 + x*y^2 + 2*x^2*z + 2*x*y*z + y^2*z + 2*y*z^2; "
        "x^2*z^2 + y*z^3 + 2*x^2*y + 2*y^2*z; x^2*y^2 + 2*x^3*z + y^3*z + 2*x*y*z^2; "
        "z^5 + 2*x*y*z^2 + 2*y*z^3 + x*y^2; y*z^4 + 2*x*y^2*z + 2*y*z^3 + z^4 + x^2*y "
        "+ x*y^2 + 2*x^2*z + 2*x*y*z + y^2*z + 2*y*z^2; y^2*z^3 + 2*x*y^3 + x^2*y*z "
        "+ y^2*z^2 + z^4 + 2*x^2*z + 2*x*y*z + 2*y*z^2}",
        id="elim-intersect-F3",
    ),
    pytest.param(
        lambda: buchberger(_parse_ideal(
            Ring(PrimeField(5), ("x", "y", "z"), LEX),
            "x^2 + y*z - 2", "x*y - z^2 + x", "y^3 - x*z + 1",
        ), LEX),
        "GB{z^11 + z^8 + 3*z^7 + 2*z^6 + 4*z^5 + 4*z^4 + z^3 + z; "
        "y + 3*z^10 + 3*z^9 + 3*z^7 + 2*z^6 + 4*z^3 + 4*z + 1; "
        "x*z + z^10 + z^9 + z^8 + z^7 + 4*z^6 + z^5 + 2*z^4 + 4*z^3 + 4*z^2 + 4*z; "
        "x^2 + 2*z^10 + 2*z^7 + z^6 + 2*z^5 + 3*z^4 + 3*z^3 + z^2 + 2*z + 3}",
        id="lex-F5",
    ),
    pytest.param(
        lambda: buchberger(_parse_ideal(
            Ring(PrimeField(7), ("x", "y", "z", "w")),
            "x*z - y^2 + w^2", "y*w - z^2 + 3*x*y", "x*w - y*z", "x^3 - w^3",
        ), GREVLEX),
        "GB{y*z + 6*x*w; y^2 + 6*x*z + 6*w^2; x*y + 2*z^2 + 5*y*w; "
        "z^3 + 4*x^2*w + 6*x*w^2; x*z^2 + 2*z^2*w + 5*y*w^2 + z*w^2; "
        "x^2*z + x*w^2 + 5*w^3; x^3 + 6*w^3; z^2*w^2 + 3*w^4; x*z*w^2 + 3*y*w^3; "
        "x^2*w^2 + 5*x*w^3 + z*w^3; z*w^4 + w^5; y*w^4 + 3*w^5; x*w^4 + 5*w^5; w^6}",
        id="grevlex-F7",
    ),
    pytest.param(
        lambda: buchberger(_parse_ideal(
            Ring(RationalFunctionField(3, ("t",)), ("x", "y", "z")),
            "t*x^2 + y*z", "x*y - (t + 1)*z^2", "y^3 + t*x*z",
        ), GREVLEX),
        "GB{x*y + (2*t + 2)*z^2; x^2 + ((1)/(t))*y*z; y^2*z + (t^2 + t)*x*z^2; "
        "y^3 + t*x*z; z^4 + ((2)/(t^2 + 2*t + 1))*x*z^2; "
        "x*z^3 + ((1)/(t^3 + 2*t^2 + t))*y*z^2}",
        id="grevlex-F3(t)",
    ),
    pytest.param(
        lambda: buchberger(_parse_ideal(R3XYZ, "x^2 - y*z", "y"), GREVLEX),
        "GB{y; x^2}",
        id="later-lead-F3",
    ),
    pytest.param(
        lambda: buchberger(_parse_ideal(
            Ring(PrimeField(2), ("t", "a", "b", "c", "d"), MonomialOrder.elimination(1)),
            "t*d", "t*b + t*c", "t*a", "t*c^2", "t*c + c",
        )),
        "GB{c*d; c^2; b*c; a*c; t*d; t*c + c; t*b + c; t*a}",
        id="later-lead-elim-F2",
    ),
    pytest.param(
        lambda: interreduce(
            R3XYZ, _parse_ideal(R3XYZ, "y*z - z^2", "x^3 + x^2*y + y^2*z").generators, GREVLEX
        ),
        "GB{y*z + 2*z^2; x^3 + x^2*y + z^3}",
        id="earlier-lead-last-term-F3",
    ),
]


@pytest.mark.parametrize("compute, expected", PINNED_BASES)
def test_reduced_basis_is_pinned(compute, expected):
    gb = compute()
    assert repr(gb) == expected
    validate_reduced_gb(gb)
