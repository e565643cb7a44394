"""Staircase lengths, explicit staircases, and Krull dimension."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from fsplit import (
    CostGuardExceeded,
    NotArtinian,
    PrimeField,
    Ring,
    buchberger,
    frobenius_power,
    ideal_sum,
    is_artinian,
    krull_dimension,
    length,
    standard_monomials,
)
from fsplit.oracle import oracle_length_mod_bracket

R5 = Ring(PrimeField(5), ("x", "y"))
X, Y = R5.gens()


def test_is_artinian_examples():
    assert is_artinian(buchberger(R5.ideal(X**2, Y**3)))
    assert not is_artinian(buchberger(R5.ideal(X * Y)))
    R1 = Ring(PrimeField(5), ("x",))
    assert is_artinian(buchberger(R1.ideal(R1.var("x"))))


def test_length_examples():
    assert length(buchberger(R5.ideal(X**2, Y**3))) == 6
    assert length(buchberger(R5.ideal(X, Y))) == 1
    assert length(buchberger(R5.ideal(X**2, X * Y, Y**2))) == 3
    assert length(buchberger(R5.ideal(X, X + 1))) == 0  # unit ideal


def test_length_requires_artinian():
    with pytest.raises(NotArtinian):
        length(buchberger(R5.ideal(X * Y)))
    # x^2 is a pure power of the first variable; none of y is a lead
    with pytest.raises(NotArtinian):
        length(buchberger(R5.ideal(X**2)))


def test_zero_ideal_of_a_zero_variable_ring():
    R0 = Ring(PrimeField(5), ())
    gb = buchberger(R0.ideal())
    assert is_artinian(gb)
    assert length(gb) == 1 and standard_monomials(gb) == ((),)
    assert krull_dimension(gb) == 0


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 3, 2), (3, 2, 2), (5, 2, 3), (5, 3, 3)])
def test_bracket_length_is_q_to_n(p, e, n):
    ring = Ring(PrimeField(p), ("x", "y", "z")[:n])
    nq = frobenius_power(ring.variable_ideal(), e)
    assert length(buchberger(nq)) == (p**e) ** n


def test_length_monotone_under_containment():
    pairs = [
        (R5.ideal(X**3, Y**3), R5.ideal(X**3, Y**3, X * Y)),
        (R5.ideal(X**2, Y**4), R5.ideal(X**2, Y**2)),
        (R5.ideal(X**5, Y**5, X**2 * Y**2), R5.ideal(X**2, Y**2)),
    ]
    for smaller, larger in pairs:
        assert length(buchberger(smaller)) >= length(buchberger(larger))


def test_length_agrees_with_enumeration_and_oracle():
    rng = random.Random(5)
    for p, e in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        ring = Ring(PrimeField(p), ("x", "y"))
        x, y = ring.gens()
        gens = [x * y, x**2 + y, x**2 * y**2][: rng.randrange(1, 4)]
        full = ideal_sum(ring.ideal(*gens), frobenius_power(ring.variable_ideal(), e))
        gb = buchberger(full)
        lam = length(gb)
        assert lam == len(standard_monomials(gb))
        assert lam == oracle_length_mod_bracket(ring.ideal(*gens), e, budget=4 * 10**6)


def test_standard_monomials_explicit():
    gb = buchberger(R5.ideal(X**2, X * Y, Y**2))
    basis = standard_monomials(gb)
    assert set(basis) == {(0, 0), (1, 0), (0, 1)}
    with pytest.raises(CostGuardExceeded):
        standard_monomials(buchberger(R5.ideal(X**200, Y**200)), budget=100)


def test_krull_dimension_examples():
    R3 = Ring(PrimeField(5), ("x", "y", "z"))
    assert krull_dimension(buchberger(R3.ideal())) == 3
    assert krull_dimension(buchberger(R5.ideal(X * Y))) == 1
    assert krull_dimension(buchberger(R5.ideal(Y**2 - X**3))) == 1
    assert krull_dimension(buchberger(R5.ideal(X, X + 1))) == -1  # unit ideal


def test_krull_dimension_principal_random():
    # dim of a nonzero principal proper ideal in n variables is n - 1;
    # verified against an independent subset brute force over all variable sets
    rng = random.Random(17)
    ring = Ring(PrimeField(3), ("x", "y", "z"))
    for _ in range(12):
        terms = {}
        for _ in range(rng.randrange(2, 4)):
            terms[tuple(rng.randrange(3) for _ in range(3))] = rng.randrange(1, 3)
        f = ring.from_terms(terms)
        if f.is_zero() or (0, 0, 0) in dict(f.terms):
            continue
        gb = buchberger(ring.ideal(f))
        dim = krull_dimension(gb)

        def brute():
            best = -1
            for r in range(4):
                for subset in itertools.combinations(range(3), r):
                    ok = True
                    for g in gb.basis:
                        e = g.leading_term(gb.order)[0]
                        support = {i for i, a in enumerate(e) if a}
                        if support <= set(subset):
                            ok = False
                            break
                    if ok:
                        best = max(best, r)
            return best

        assert dim == brute() == 2


@st.composite
def monomial_ideals(draw):
    # a pure power of each variable, dropped one time in four, optionally
    # mixed monomials, optionally 1
    n = draw(st.integers(0, 4))
    gens = []
    for i in range(n):
        cap = draw(st.integers(1, 5))
        if draw(st.integers(0, 3)):
            gens.append(tuple(cap if j == i else 0 for j in range(n)))
    gens += draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=4))
    if draw(st.booleans()) and draw(st.booleans()):
        gens.append((0,) * n)
    return n, gens


@given(monomial_ideals())
def test_packed_length_counts_the_staircase(case):
    # is_artinian, length and krull_dimension read packed leads; the reference
    # reads the generator tuples, whose ideal is its own leading-term ideal
    n, gens = case
    ring = Ring(PrimeField(3), ("x", "y", "z", "w")[:n])
    gb = buchberger(ring.ideal(*(ring.monomial(e) for e in gens)))
    unit = (0,) * n in gens
    pure = [[g[i] for g in gens if g[i] and not any(g[:i] + g[i + 1:])] for i in range(n)]
    artinian = unit or all(pure)
    supports = [{i for i, a in enumerate(g) if a} for g in gens]
    dim = -1 if unit else max(
        r
        for r in range(n + 1)
        for free in itertools.combinations(range(n), r)
        if not any(s <= set(free) for s in supports)
    )
    assert is_artinian(gb) == artinian
    assert krull_dimension(gb) == dim
    if not artinian:
        with pytest.raises(NotArtinian):
            length(gb)
        with pytest.raises(NotArtinian):
            standard_monomials(gb)
        return
    box = () if unit else itertools.product(*(range(min(c)) for c in pure))
    brute = sum(
        1 for m in box if not any(all(a <= b for a, b in zip(g, m)) for g in gens)
    )
    assert length(gb) == len(standard_monomials(gb)) == brute


def test_length_needs_a_pure_power_of_the_last_variable():
    R3 = Ring(PrimeField(5), ("x", "y", "z"))
    x, y, z = R3.gens()
    gb = buchberger(R3.ideal(x**2, y**3, x * z, y * z**2))
    with pytest.raises(NotArtinian):
        length(gb)
    with pytest.raises(NotArtinian):
        standard_monomials(gb)
    # z^0: 2 * 3 monomials; z^1: y^0..y^2; z^2, z^3: 1 each
    assert length(buchberger(R3.ideal(x**2, y**3, x * z, y * z**2, z**4))) == 6 + 3 + 2
