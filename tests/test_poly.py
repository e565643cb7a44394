"""Polynomial arithmetic, monomial orders, and presentation plumbing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fsplit import (
    GREVLEX,
    LEX,
    ExponentOverflow,
    MonomialOrder,
    PrimeField,
    RationalFunctionField,
    Ring,
    RingMismatch,
)
from fsplit.groebner import _divides
from fsplit.poly import (
    EXPONENT_LIMIT,
    _base_p_power,
    guard_mask,
    pack,
    packed_overflow,
    unpack,
)

R2 = Ring(PrimeField(2), ("x", "y"))
R5 = Ring(PrimeField(5), ("x", "y"))

ORDERS = [
    LEX,
    GREVLEX,
    MonomialOrder.elimination(1),
    MonomialOrder.elimination(2),
    MonomialOrder.elimination(5),  # a block past the last variable: grevlex, shifted
]
exps3 = st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))


def test_freshmans_dream():
    x, y = R2.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_multiply_by_zero():
    x, _ = R5.gens()
    f = x**3 + 2
    assert f * R5.zero() == R5.zero()


def test_difference_of_squares():
    x, y = R5.gens()
    assert (y**2 - x**3) * (y**2 + x**3) == y**4 - x**6


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        R2.var("x") + R5.var("x")


def test_exponent_overflow():
    x, y = R2.gens()
    f = x ** 60000
    with pytest.raises(ExponentOverflow):
        f * f
    with pytest.raises(ExponentOverflow):
        x.frobenius(17)  # 2^17 > 16-bit range
    # a power names the largest exponent of each variable in f^k
    with pytest.raises(ExponentOverflow, match=r"largest \(70000, 0\)$"):
        x ** 70000
    with pytest.raises(ExponentOverflow, match=r"largest \(80000, 40000\)$"):
        (x**2 + y + 1) ** 40000


POWER_FIELDS = [
    PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
    RationalFunctionField(2, ("t",)), RationalFunctionField(3, ("t",)),
]


@st.composite
def powers(draw):
    """(f, k): f with up to four terms in x, y and a constant term over F_p or
    F_p(t), with coefficients a + b*t, and k up to min(p^3 + 2, 40), so k has
    up to four base-p digits."""
    field = draw(st.sampled_from(POWER_FIELDS))
    ring = Ring(field, ("x", "y"), draw(st.sampled_from([GREVLEX, LEX])))
    p = field.characteristic
    t = ring.constant(field.transcendental("t")) if field.transcendentals else ring.zero()
    f = ring.zero()
    for _ in range(draw(st.integers(0, 4))):
        c = ring.from_int(draw(st.integers(0, p - 1))) + draw(st.integers(0, p - 1)) * t
        f = f + c * ring.monomial(draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
    f = f + ring.from_int(draw(st.integers(0, p - 1)))
    return f, draw(st.integers(0, min(p**3 + 2, 40)))


@given(powers(), st.integers(1, 30))
def test_power_by_base_p_digits_is_repeated_multiplication(power, cap):
    # with a cap, every term of f^k with an exponent >= cap is dropped; caps
    # below p^i for the top digit i of k leave that factor its constant term
    f, k = power
    want = f.ring.one()
    for _ in range(k):
        want = want * f
    assert f**k == want
    low = {x: c for x, c in want.terms if max(x) < cap}
    assert _base_p_power(f, k, cap) == f.ring.from_terms(low)


# exponents near both ends of the 16-bit range, so divisibility goes both ways
packed_exps = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        *[st.one_of(st.integers(0, 3), st.integers(EXPONENT_LIMIT - 4, EXPONENT_LIMIT - 1),
                    st.integers(0, EXPONENT_LIMIT - 1)) for _ in range(n)]
    )
)


def test_pack_roundtrip_at_the_range_ends():
    top = EXPONENT_LIMIT - 1
    for n in range(5):
        for e in ((0,) * n, (top,) * n, tuple(range(n))):
            assert unpack(pack(e), n) == e
    assert guard_mask(0) == 0 and pack(()) == 0


@given(packed_exps, st.data())
def test_packed_divisibility_and_products_match_tuples(a, data):
    n = len(a)
    b = data.draw(st.one_of(
        st.tuples(*[st.integers(0, x) for x in a]),  # a divisor of a
        packed_exps.filter(lambda e: len(e) == n),
    ))
    G = guard_mask(n)
    pa, pb = pack(a), pack(b)
    assert unpack(pa, n) == a
    assert (((pa | G) - pb) & G == G) == _divides(b, a)
    if _divides(b, a):
        assert unpack(pa - pb, n) == tuple(x - y for x, y in zip(a, b))
    total = tuple(x + y for x, y in zip(a, b))
    if any(x >= EXPONENT_LIMIT for x in total):
        assert (pa + pb) & G
        assert str(total) in str(packed_overflow(pa, pb, G))
    else:
        assert not (pa + pb) & G
        assert unpack(pa + pb, n) == total


def test_frobenius_on_polynomials():
    x, y = R5.gens()
    f = y**2 - x**3
    assert f.frobenius(1) == y**10 - x**15  # freshman's dream collapse in char 5
    assert f.frobenius(0) == f


def test_term_order_canonical():
    x, y = R5.gens()
    f = 1 + x + y + x * y
    degrees = [sum(e) for e, _ in f.terms]
    assert degrees == sorted(degrees, reverse=True)
    assert str(f) == "x*y + x + y + 1"


def test_transcendental_variable_clash():
    from fsplit import DuplicateVariable

    field = RationalFunctionField(3, ("t",))
    with pytest.raises(DuplicateVariable):
        Ring(field, ("x", "t"))


def test_grevlex_vs_lex_disagree():
    # x^2 vs xy^2: lex puts x^2 first (higher x power), grevlex prefers degree
    assert LEX.key((2, 0)) > LEX.key((1, 2))
    assert GREVLEX.key((1, 2)) > GREVLEX.key((2, 0))


def test_elimination_order_blocks():
    # any monomial containing the first variable beats any that does not
    elim = MonomialOrder.elimination(1)
    assert elim.key((1, 0, 0)) > elim.key((0, 900, 900))
    # a block covering every variable leaves grevlex, shifted past an empty rest
    assert MonomialOrder.elimination(5).key((3, 1, 4)) == GREVLEX.key((3, 1, 4)) << 24


@pytest.mark.parametrize(
    "kind, block",
    [("grevlex", 2), ("lex", 1), ("grevlex", 0.0), ("elim", 0), ("elim", -1), ("elim", 1.5),
     ("elim", True), ("elim", "1"), ("deglex", 0)],
)
def test_order_rejects_a_block_it_cannot_use(kind, block):
    # grevlex with a block would print as grevlex yet differ from GREVLEX,
    # and a fractional elim block would fail only at its first key
    with pytest.raises(ValueError):
        MonomialOrder(kind, block)


def _reference(order, exps):
    """A tuple that compares as ``order`` does: lex, grevlex, or grevlex per block."""
    def grevlex(block):
        return (sum(block),) + tuple(-a for a in reversed(block))

    if order.kind == "lex":
        return tuple(exps)
    if order.kind == "grevlex":
        return grevlex(exps)
    return grevlex(exps[: order.block]) + grevlex(exps[order.block :])


@pytest.mark.parametrize("order", ORDERS, ids=str)
@given(u=exps3, v=exps3, w=exps3)
def test_order_axioms(order, u, v, w):
    ku, kv = order.key(u), order.key(v)
    # antisymmetry via key injectivity
    assert (ku == kv) == (u == v)
    # multiplicative: u < v implies uw < vw
    uw = tuple(a + b for a, b in zip(u, w))
    vw = tuple(a + b for a, b in zip(v, w))
    if ku < kv:
        assert order.key(uw) < order.key(vw)
    # 1 is minimal
    if any(u):
        assert order.key((0, 0, 0)) < ku
    # affine: multiplying by u shifts every key by the same amount
    assert order.key(uw) - order.key(w) == ku - order.key((0, 0, 0))
    # the packed key compares as the tuple reference does
    assert (ku < kv) == (_reference(order, u) < _reference(order, v))


@given(u=exps3)
def test_elimination_key_of_a_t_free_monomial_is_a_shifted_grevlex_key(u):
    # intersect builds elim(1) keys of t^a*x^m as t_a + (grevlex key of x^m)
    elim = MonomialOrder.elimination(1)
    t0 = elim.key((0, 0, 0, 0)) - GREVLEX.key((0, 0, 0))
    assert elim.key((0,) + u) == t0 + GREVLEX.key(u)


@given(u=exps3, v=exps3)
def test_grevlex_definition(u, v):
    # degree first, then last nonzero coordinate of the difference is negative
    if sum(u) != sum(v):
        assert (GREVLEX.key(u) > GREVLEX.key(v)) == (sum(u) > sum(v))
    elif u != v:
        diff = [a - b for a, b in zip(u, v)]
        last = next(d for d in reversed(diff) if d)
        assert (GREVLEX.key(u) > GREVLEX.key(v)) == (last < 0)


def random_poly(ring, rng, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        terms[exps] = ring.field.from_int(rng.randrange(1, ring.field.characteristic))
    return ring.from_terms(terms)


def test_arithmetic_matches_naive_model():
    # cross-check the term engine against dict arithmetic done from scratch
    import random

    rng = random.Random(7)
    p = 5
    for _ in range(200):
        f, g = random_poly(R5, rng), random_poly(R5, rng)
        model = {}
        for e1, c1 in f.terms:
            for e2, c2 in g.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                model[e] = (model.get(e, 0) + c1 * c2) % p
        assert (f * g) == R5.from_terms(model)
        model = dict(f.terms)
        for e, c in g.terms:
            model[e] = (model.get(e, 0) + c) % p
        assert (f + g) == R5.from_terms(model)
