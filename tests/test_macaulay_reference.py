"""The engine against Macaulay matrices: Hilbert functions from ranks alone.

For a homogeneous ideal I = (f_1, ..., f_r) of S = F_p[x_1, ..., x_n],
dim_k (S/I)_d is the number of degree-d monomials minus the rank of the
degree-d Macaulay matrix, whose rows are the products m*f_i (Macaulay 1916;
Lazard, EUROCAL 1983). The engine's side is the number of degree-d monomials
that no lead of its reduced grevlex basis divides: grevlex refines degree, so
the leads span the same Hilbert function. Colons and intersections follow
from ranks through exact sequences:

- 0 -> S/(I : f)(-deg f) -> S/I -> S/(I + (f)) -> 0, so
  H_{S/(I:f)}(d) = H_{S/I}(d + deg f) - H_{S/(I+(f))}(d + deg f);
- 0 -> S/(I cap J) -> S/I + S/J -> S/(I + J) -> 0, so
  H_{S/(I cap J)} = H_{S/I} + H_{S/J} - H_{S/(I+J)}.

The rows and their reduction mod p are ``fsplit.oracle``'s, which uses no
Groebner code.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, strategies as st

from fsplit import PrimeField, Ring, buchberger
from fsplit.ideals import colon_ideal, intersect
from fsplit.oracle import _degree_monomials, _row, _rref_mod_p

TOP = 6  # Hilbert functions are compared in degrees 0..TOP


@cache
def ring(p: int, n: int) -> Ring:
    return Ring(PrimeField(p), ("x", "y", "z", "w")[:n])


@cache
def monomials(n: int, d: int) -> tuple:
    return tuple(_degree_monomials(n, d))


def macaulay_hilbert(R: Ring, gens, d: int) -> int:
    """dim_k (S/(gens))_d: degree-d monomials minus the Macaulay matrix rank."""
    cols = monomials(R.nvars, d)
    index = {m: i for i, m in enumerate(cols)}
    rows = [
        _row(g, m, index)
        for g in gens
        if g.total_degree() <= d
        for m in monomials(R.nvars, d - g.total_degree())
    ]
    return len(cols) - len(_rref_mod_p(rows, len(cols), R.field.characteristic, 10**6))


def engine_hilbert(gb, d: int) -> int:
    """Degree-d monomials that no lead of the engine's basis divides."""
    leads = [g.terms[0][0] for g in gb.basis]
    return sum(
        not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
        for m in monomials(gb.ring.nvars, d)
    )


@st.composite
def homogeneous(draw, R: Ring, top: int = 3):
    """A nonzero homogeneous polynomial of degree 1..top with at most four terms."""
    mons = draw(st.lists(
        st.sampled_from(monomials(R.nvars, draw(st.integers(1, top)))),
        min_size=1, max_size=4, unique=True,
    ))
    p = R.field.characteristic
    return R.from_terms({m: draw(st.integers(1, p - 1)) for m in mons})


@st.composite
def cases(draw):
    """A ring over F_2, F_3 or F_5 in 3 or 4 variables, I, J and a colon element f."""
    R = ring(draw(st.sampled_from((2, 3, 5))), draw(st.integers(3, 4)))
    I = draw(st.lists(homogeneous(R), min_size=1, max_size=3))
    J = draw(st.lists(homogeneous(R), min_size=1, max_size=2))
    f = draw(homogeneous(R, top=2))
    return R, I, J, f


@given(cases())
def test_engine_matches_macaulay_ranks(case):
    R, I, J, f = case
    k = f.total_degree()
    gb = buchberger(R.ideal(*I))
    colon = colon_ideal(R.ideal(*I), R.ideal(f))
    inter = intersect(R.ideal(*I), R.ideal(*J))
    for d in range(TOP + 1):
        H = macaulay_hilbert(R, I, d)
        assert engine_hilbert(gb, d) == H, ("buchberger", d)
        colon_H = macaulay_hilbert(R, I, d + k) - macaulay_hilbert(R, I + [f], d + k)
        assert engine_hilbert(colon, d) == colon_H, ("colon", d)
        inter_H = H + macaulay_hilbert(R, J, d) - macaulay_hilbert(R, I + J, d)
        assert engine_hilbert(inter, d) == inter_H, ("intersect", d)
