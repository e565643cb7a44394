"""Coefficient field arithmetic: F_p and F_p(t1, ..., tm)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fsplit import (
    DivisionByZero,
    DuplicateVariable,
    NonPrimeCharacteristic,
    PrimeField,
    RatFunc,
    RationalFunctionField,
    Ring,
)
from fsplit.fields import _rank, _tp_divexact, _tp_gcd, is_prime
from fsplit.poly import add_terms, mul_terms, neg_terms, sort_terms

F5 = PrimeField(5)
F2T = RationalFunctionField(2, ("t",))
F3T = RationalFunctionField(3, ("t",))
F3TT = RationalFunctionField(3, ("t1", "t2"))
F5TTT = RationalFunctionField(5, ("t1", "t2", "t3"))
SHORTCUT_FIELDS = [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)]


def _terms(d):
    """A {exponents: residue} dict as the sorted term tuple of a RatFunc part."""
    return sort_terms(d, _rank)


def _mul(a, b, p):
    return mul_terms(a, b, PrimeField(p), _rank)


def rf(field, num, den=None):
    m = len(field.transcendentals)
    if den is None:
        den = {(0,) * m: 1}
    return field._canonical(_terms(dict(num)), _terms(dict(den)))


@st.composite
def ratfunc_elements(draw, field=F2T, max_exp=3):
    m = len(field.transcendentals)
    p = field.characteristic

    def tpoly(nonzero):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * m),
            st.integers(1, p - 1),
            max_size=3,
        ))
        if nonzero and not terms:
            terms = {(0,) * m: 1}
        return terms

    return rf(field, tpoly(False), tpoly(True))


def test_prime_field_examples():
    assert F5.add(2, 4) == 1
    assert F5.inv(3) == 2
    assert F5.div(1, 3) == 2


def test_rational_function_cancellation():
    t = F2T.transcendental("t")
    one = F2T.one()
    t_plus_1 = F2T.add(t, one)
    product = F2T.mul(F2T.div(t, t_plus_1), F2T.div(t_plus_1, F2T.mul(t, t)))
    assert product == F2T.inv(t)
    assert F2T.format(product) == "(1)/(t)"


def test_zero_is_unique():
    t = F2T.transcendental("t")
    diff = F2T.sub(F2T.div(t, F2T.add(t, F2T.one())), F2T.div(t, F2T.add(t, F2T.one())))
    assert diff == F2T.zero()
    assert F2T.is_zero(diff)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.div(1, 0)
    with pytest.raises(DivisionByZero):
        F2T.inv(F2T.zero())


def test_field_mismatch():
    # an element of another field is no scalar for F_5 polynomials
    assert not F5.element_of(F2T.one()) and not F2T.element_of(2)
    with pytest.raises(TypeError):
        Ring(F5, ("x",)).var("x") * F2T.one()


def test_frobenius_examples():
    assert F5.frobenius(3, 1) == 3
    t = F2T.transcendental("t")
    assert F2T.frobenius(t, 1) == F2T.mul(t, t)
    t3 = F3T.transcendental("t")
    lhs = F3T.frobenius(F3T.add(t3, F3T.one()), 1)
    assert lhs == F3T.add(F3T.pow(t3, 3), F3T.one())


def test_alpha_values():
    assert F5.alpha() == 0
    assert F2T.alpha() == 1
    assert F3TT.alpha() == 2


def test_alpha_independence_witness():
    # {t1^i t2^j : 0 <= i, j < 3} is independent over cube powers: any relation
    # sum a_ij^3 t1^i t2^j = 0 with some a_ij != 0 fails because cubing keeps
    # exponent classes mod 3 disjoint.
    p = 3
    for coeffs in (
        {(0, 0): F3TT.one()},
        {(1, 2): F3TT.transcendental("t1"), (2, 1): F3TT.one()},
        {(0, 1): F3TT.add(F3TT.transcendental("t2"), F3TT.one()), (2, 2): F3TT.one()},
    ):
        total = F3TT.zero()
        for (i, j), a in coeffs.items():
            term = F3TT.mul(F3TT.frobenius(a, 1), F3TT.monomial((i, j)))
            total = F3TT.add(total, term)
        assert not F3TT.is_zero(total)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        PrimeField(4)
    with pytest.raises(NonPrimeCharacteristic):
        RationalFunctionField(6, ("t",))


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441


def test_is_prime_matches_a_sieve():
    # the sieve of Eratosthenes below 10^5
    sieve = bytearray([1]) * 100_000
    sieve[0] = sieve[1] = 0
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, 100_000, i)))
    assert [n for n in range(100_000) if is_prime(n)] == [n for n in range(100_000) if sieve[n]]


def test_characteristic_at_least_2_to_16_rejected():
    # q = p^e is an exponent of n^[q], so p itself must stay below 2^16
    for p in (PSI_12, 65537, 2**61 - 1, 10**5000):
        with pytest.raises(NonPrimeCharacteristic, match="2\\^16") as info:
            PrimeField(p)
        assert len(str(info.value)) < 200
    # 10^5000 has too many digits for str(): the refusal names its size
    assert "an integer of 16610 bits" in str(info.value)
    with pytest.raises(NonPrimeCharacteristic):
        RationalFunctionField(65537, ("t",))
    assert PrimeField(65521).characteristic == 65521


def test_duplicate_transcendentals_rejected():
    with pytest.raises(DuplicateVariable):
        RationalFunctionField(3, ("t", "t"))


@given(ratfunc_elements(), ratfunc_elements())
def test_ratfunc_product_division_roundtrip(a, b):
    if F2T.is_zero(b):
        return
    assert F2T.div(F2T.mul(a, b), b) == a


@given(ratfunc_elements(), ratfunc_elements())
def test_frobenius_is_additive_and_multiplicative(a, b):
    fa, fb = F2T.frobenius(a, 1), F2T.frobenius(b, 1)
    assert F2T.frobenius(F2T.add(a, b), 1) == F2T.add(fa, fb)
    assert F2T.frobenius(F2T.mul(a, b), 1) == F2T.mul(fa, fb)


@given(ratfunc_elements(field=F3TT, max_exp=2))
def test_two_transcendentals_canonical(a):
    # canonical form: subtracting from itself gives the unique zero
    assert F3TT.sub(a, a) == F3TT.zero()
    if not F3TT.is_zero(a):
        assert F3TT.mul(a, F3TT.inv(a)) == F3TT.one()


@given(st.integers(0, 4), st.integers(0, 4))
def test_prime_field_frobenius_fixes_everything(a, e):
    assert F5.frobenius(a, e) == a


def test_negative_powers_are_inverse_powers():
    assert F5.pow(2, -1) == F5.inv(2) == 3
    assert F5.pow(2, -2) == F5.mul(3, 3)
    t = F3T.transcendental("t")
    u = F3T.add(t, F3T.one())
    assert F3T.pow(u, -1) == F3T.inv(u)
    assert F3T.pow(u, -2) == F3T.inv(F3T.mul(u, u))
    for field in (F5, F3T):
        with pytest.raises(DivisionByZero):
            field.pow(field.zero(), -1)


@st.composite
def tpolys(draw, p, m, max_terms, max_exp=3):
    """A nonzero polynomial in m transcendentals over F_p, as sorted terms."""
    return _terms(draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * m),
        st.integers(1, p - 1),
        min_size=1,
        max_size=max_terms,
    )))


def _one_plus_t1(m):
    return _terms({(0,) * m: 1, (1,) + (0,) * (m - 1): 1})


@pytest.mark.parametrize("p,m", SHORTCUT_FIELDS)
@given(data=st.data())
def test_single_term_gcd_matches_prs(p, m, data):
    # gcd(a*c, b*c) = c*gcd(a, b) with c = 1 + t1 sends both arguments through
    # the general gcd. Multi-term f only up to two transcendentals: the general
    # gcd is too slow on random three-transcendental inputs.
    mono = data.draw(tpolys(p, m, max_terms=1))
    f = data.draw(tpolys(p, m, max_terms=4 if m <= 2 else 1))
    c = _one_plus_t1(m)
    F = PrimeField(p)
    g = _tp_gcd(mono, f, F)
    assert _tp_gcd(f, mono, F) == g
    assert _tp_gcd(_mul(mono, c, p), _mul(f, c, p), F) == _mul(g, c, p)


@pytest.mark.parametrize("p,m", SHORTCUT_FIELDS)
@given(data=st.data())
def test_single_term_divexact(p, m, data):
    F = PrimeField(p)
    mono = data.draw(tpolys(p, m, max_terms=1))
    c = _one_plus_t1(m)
    # a multiple of mono divides back exactly
    f = _mul(data.draw(tpolys(p, m, max_terms=4)), mono, p)
    q = _tp_divexact(f, mono, F)
    assert q is not None and _mul(q, mono, p) == f
    # any g: the same answer as long division by the multi-term mono*c
    g = data.draw(tpolys(p, m, max_terms=4))
    q = _tp_divexact(g, mono, F)
    assert q == _tp_divexact(_mul(g, c, p), _mul(mono, c, p), F)
    if q is not None:
        assert _mul(q, mono, p) == g


@given(ratfunc_elements(field=F5TTT, max_exp=2))
def test_three_transcendentals_canonical(a):
    assert F5TTT.sub(a, a) == F5TTT.zero()
    if not F5TTT.is_zero(a):
        assert F5TTT.mul(a, F5TTT.inv(a)) == F5TTT.one()


# -- Henrici's rules against cross-multiplication --------------------------------


def _reference(field, op, a, b=None):
    """op by cross-multiplying and one full gcd in ``_canonical``."""
    p = field.characteristic
    an, ad = a.num, a.den
    if op == "inv":
        return field._canonical(ad, an)
    if op == "neg":
        return field._canonical(neg_terms(an, PrimeField(p)), ad)
    bn, bd = b.num, b.den
    if op == "sub":
        op, bn = "add", neg_terms(bn, PrimeField(p))
    if op == "add":
        num = add_terms(_mul(an, bd, p), _mul(bn, ad, p), PrimeField(p), _rank)
        return field._canonical(num, _mul(ad, bd, p))
    if op == "div":
        bn, bd = bd, bn
    return field._canonical(_mul(an, bn, p), _mul(ad, bd, p))


HENRICI_FIELDS = [(F2T, 3, 3), (F3TT, 3, 2), (F5TTT, 2, 1)]  # field, terms, exponent


@st.composite
def operand_pairs(draw, field, max_terms, max_exp):
    """a, b whose denominators are equal, share a factor c, or are prime to each
    other, and some with c across a numerator and the other denominator, so
    every branch of add and mul runs; a is sometimes zero."""
    p, m = field.characteristic, len(field.transcendentals)
    an, bn = (draw(tpolys(p, m, max_terms, max_exp)) for _ in range(2))
    ad, bd = (draw(tpolys(p, m, max_terms, max_exp)) for _ in range(2))
    c = draw(tpolys(p, m, 2, 1))
    share = draw(st.sampled_from(["dens", "cross", "equal", "none"]))
    if share == "dens":
        ad, bd = _mul(ad, c, p), _mul(bd, c, p)
    elif share == "cross":
        an, bd = _mul(an, c, p), _mul(bd, c, p)
    elif share == "equal":
        bd = ad
    if draw(st.integers(0, 9)) == 0:
        an = ()
    return rf(field, an, ad), rf(field, bn, bd)


@pytest.mark.parametrize("field,max_terms,max_exp", HENRICI_FIELDS, ids=repr)
@given(data=st.data())
def test_henrici_matches_cross_multiplication(field, max_terms, max_exp, data):
    a, b = data.draw(operand_pairs(field, max_terms, max_exp))
    p = field.characteristic
    cases = [(op, (a, b)) for op in ("add", "sub", "mul")]
    cases += [(op, (a, b)) for op in ("div",) if not field.is_zero(b)]
    cases += [("inv", (x,)) for x in (a, b) if not field.is_zero(x)]
    for op, args in cases:
        got = getattr(field, op)(*args)
        assert got == _reference(field, op, *args), (op, args)
        if not field.is_zero(got):
            num, den = got.num, got.den
            assert num == _terms(dict(num)) and den == _terms(dict(den))
            assert _tp_gcd(num, den, PrimeField(p)) == (((0,) * len(field.transcendentals), 1),)
            assert den[0][1] == 1


def test_add_equal_denominators_cancels_against_them():
    t, one = F2T.transcendental("t"), F2T.one()
    t_plus_1 = F2T.add(t, one)
    assert F2T.add(F2T.div(one, t_plus_1), F2T.div(t, t_plus_1)) == one


def test_add_coprime_denominators():
    # 1/t + 1/(t + 1) = (2t + 1)/(t^2 + t) over F_3
    t, one = F3T.transcendental("t"), F3T.one()
    got = F3T.add(F3T.inv(t), F3T.inv(F3T.add(t, one)))
    assert got == RatFunc((((1,), 2), ((0,), 1)), (((2,), 1), ((1,), 1)))


def test_add_shared_denominator_factor():
    # 1/(t(t + 1)) + 1/(t(t + 2)) = 2t/(t(t + 1)(t + 2)) = 2/(t^2 + 2) over F_3:
    # the common factor t of the denominators also divides the new numerator
    t, one = F3T.transcendental("t"), F3T.one()
    a = F3T.inv(F3T.mul(t, F3T.add(t, one)))
    b = F3T.inv(F3T.mul(t, F3T.add(t, F3T.from_int(2))))
    assert F3T.add(a, b) == RatFunc((((0,), 2),), (((2,), 1), ((0,), 2)))


def test_mul_cancels_across():
    t, one = F3T.transcendental("t"), F3T.one()
    t_plus_1 = F3T.add(t, one)
    assert F3T.mul(F3T.div(t_plus_1, t), F3T.div(t, t_plus_1)) == one


def test_mul_of_monomials_cancels_exponentwise():
    # (2 t1^2 / t2) * (t2^3 / t1^3) = 2 t2^2 / t1 over F_3
    a = rf(F3TT, {(2, 0): 2}, {(0, 1): 1})
    b = rf(F3TT, {(0, 3): 1}, {(3, 0): 1})
    assert F3TT.mul(a, b) == RatFunc((((0, 2), 2),), (((1, 0), 1),))


@pytest.mark.parametrize("p,m", SHORTCUT_FIELDS)
@given(data=st.data())
def test_mul_of_monomial_fractions_matches_the_general_path(p, m, data):
    # four monomials take mul's exponentwise path; the reference multiplies
    # out and cancels with one full gcd
    field = RationalFunctionField(p, ("t1", "t2", "t3")[:m])
    a, b = (
        rf(field, dict(data.draw(tpolys(p, m, max_terms=1))), dict(data.draw(tpolys(p, m, 1))))
        for _ in range(2)
    )
    assert len(a.num) == len(a.den) == len(b.num) == len(b.den) == 1
    assert field.mul(a, b) == _reference(field, "mul", a, b)


def test_inverse_rescales_a_non_monic_numerator():
    # ((2t + 1)/(t^2 + t + 1))^-1 = (3t^2 + 3t + 3)/(t + 3) over F_5
    F5T = RationalFunctionField(5, ("t",))
    a = rf(F5T, {(1,): 2, (0,): 1}, {(2,): 1, (1,): 1, (0,): 1})
    assert a.num == (((1,), 2), ((0,), 1))
    assert F5T.inv(a) == RatFunc((((2,), 3), ((1,), 3), ((0,), 3)), (((1,), 1), ((0,), 3)))


# -- one-term add and neg against cross-multiplication --------------------------


@st.composite
def one_term_pairs(draw, field):
    """a, b as Laurent monomials c*t^u/t^v, as like terms c*t^u/d and c'*t^u/d
    over one denominator d (a short sum or a monomial), or as short sums, so
    that add's like-term path, its zero sum and neg's one-term path all run."""
    p, m = field.characteristic, len(field.transcendentals)

    def coefficient():
        return draw(st.integers(1, p - 1))

    def mono():
        return dict(draw(tpolys(p, m, max_terms=1, max_exp=2)))

    shape = draw(st.sampled_from(["laurent", "like", "like-over-sum", "sums"]))
    if shape == "laurent":
        return rf(field, mono(), mono()), rf(field, mono(), mono())
    if shape == "sums":
        return tuple(
            rf(field, dict(draw(tpolys(p, m, 2, 2))), dict(draw(tpolys(p, m, 2, 2))))
            for _ in range(2)
        )
    ((u, _),) = mono().items()
    d = mono() if shape == "like" else dict(draw(tpolys(p, m, 3, 2)))
    a, b = (rf(field, {u: coefficient()}, d) for _ in range(2))
    assert len(a.num) == len(b.num) == 1 and a.num[0][0] == b.num[0][0] and a.den == b.den
    return a, b


@pytest.mark.parametrize("p,m", SHORTCUT_FIELDS)
@given(data=st.data())
def test_one_term_paths_match_cross_multiplication(p, m, data):
    # add's like-term path and neg's one-term path must return the tuple the
    # general route does: the cross-multiplied fraction through _canonical
    field = RationalFunctionField(p, ("t1", "t2", "t3")[:m])
    a, b = data.draw(one_term_pairs(field))
    cases = [(op, (a, b)) for op in ("add", "sub", "mul")]
    cases += [("div", (a, b))] if not field.is_zero(b) else []
    cases += [("neg", (x,)) for x in (a, b)]
    for op, args in cases:
        assert getattr(field, op)(*args) == _reference(field, op, *args), (op, args)
