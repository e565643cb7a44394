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

A colon by several generators J = (g_1, ..., g_s) is the kernel of one
linear map: (I : J)_d is the kernel of

  S_d -> sum_i S_{d + deg g_i} / I_{d + deg g_i},  h -> (h*g_i mod I)_i,

so H_{S/(I:J)}(d) is the rank of that map. Each h*g_i is reduced against the
RREF of the degree-(d + deg g_i) Macaulay rows, which leaves the one
representative of its class whose pivot entries are zero.

The rows and their reduction mod p are ``fsplit.oracle``'s, which uses no
Groebner code.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, strategies as st

from fsplit import PrimeField, Ring, buchberger
from fsplit.ideals import colon_ideal, intersect
from fsplit.oracle import _degree_monomials, _reduce, _row, _rref_mod_p

TOP = 6  # Hilbert functions are compared in degrees 0..TOP


@cache
def ring(p: int, n: int) -> Ring:
    return Ring(PrimeField(p), ("x", "y", "z", "w")[:n])


@cache
def monomials(n: int, d: int) -> tuple:
    return tuple(_degree_monomials(n, d))


def macaulay_rref(R: Ring, gens, d: int) -> dict:
    """The RREF of the degree-d Macaulay matrix of gens, as ``_rref_mod_p`` gives it."""
    cols = monomials(R.nvars, d)
    index = {m: i for i, m in enumerate(cols)}
    rows = [
        _row(g, m, index)
        for g in gens
        if g.total_degree() <= d
        for m in monomials(R.nvars, d - g.total_degree())
    ]
    return _rref_mod_p(rows, len(cols), R.field.characteristic, 10**6)


def macaulay_hilbert(R: Ring, gens, d: int) -> int:
    """dim_k (S/(gens))_d: degree-d monomials minus the Macaulay matrix rank."""
    return len(monomials(R.nvars, d)) - len(macaulay_rref(R, gens, d))


def macaulay_colon_hilbert(R: Ring, I, J, d: int) -> int:
    """dim_k (S/(I : J))_d: the rank of h -> (h*f mod I)_{f in J} on S_d."""
    p = R.field.characteristic
    blocks = []  # (f, column index of degree d + deg f, RREF of I there, column offset)
    offset = 0
    for f in J:
        D = d + f.total_degree()
        cols = monomials(R.nvars, D)
        blocks.append((f, {m: i for i, m in enumerate(cols)}, macaulay_rref(R, I, D), offset))
        offset += len(cols)
    rows = []
    for h in monomials(R.nvars, d):
        row = {}
        for f, index, pivots, shift in blocks:
            row.update((c + shift, v) for c, v in _reduce(_row(f, h, index), pivots, p).items())
        rows.append(row)
    return len(_rref_mod_p(rows, offset, p, 10**6))


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


@st.composite
def colon_cases(draw):
    """A ring over F_2, F_3 or F_5 in 3 or 4 variables, I, and J of two or three generators."""
    R = ring(draw(st.sampled_from((2, 3, 5))), draw(st.integers(3, 4)))
    I = draw(st.lists(homogeneous(R), min_size=1, max_size=3))
    J = draw(st.lists(homogeneous(R, top=2), min_size=2, max_size=3))
    return R, I, J


@given(colon_cases())
def test_multi_generator_colon_matches_macaulay_ranks(case):
    R, I, J = case
    colon = colon_ideal(R.ideal(*I), R.ideal(*J))
    for d in range(TOP + 1):
        assert engine_hilbert(colon, d) == macaulay_colon_hilbert(R, I, J, d), d
