"""Brute-force verifier: linear algebra over F_p on the box [0,q)^n.

No Groebner machinery is used anywhere here; this module exists to check the
main path and to pin derived fixture values. Simplicity over speed:

- a row is a sparse ``{column: residue}`` dict, built by ``_row``;
- ``_rref_mod_p`` keeps a span as monic pivot rows in reduced row echelon
  form, reducing each new row with ``_reduce``. A row space has exactly one
  such form, so ranks, pivots and null-space bases do not depend on row order;
- the budget caps each matrix's dense shape, rows times columns, before any
  elimination starts.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .errors import DEFAULT_BUDGET, BudgetExceeded, FieldMismatch, NotHomogeneous
from .fields import PrimeField
from .poly import IdealPresentation


def _require_prime_field(ring):
    if not isinstance(ring.field, PrimeField):
        raise FieldMismatch("the oracle only supports F_p coefficients")


def _row(g, mono, index) -> dict:
    """mono * g over the indexed monomials; terms outside the index are dropped."""
    row = {}
    for exps, c in g.terms:
        col = index.get(tuple(a + b for a, b in zip(exps, mono)))
        if col is not None:
            row[col] = c
    return row


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """Reduce row in place against monic rows {pivot column: row} in RREF.

    A pivot row is zero on every other pivot column, so one pass over the
    pivot columns of the original row clears them all.
    """
    for c in [c for c in row if c in pivots]:
        a = row[c]
        for k, v in pivots[c].items():
            r = (row.get(k, 0) - a * v) % p
            if r:
                row[k] = r
            else:
                del row[k]
    return row


def _rref_mod_p(rows: list, ncols: int, p: int, budget: int) -> dict:
    """The RREF of the rows' span as {pivot column: monic row}; consumes rows.

    The rank is the number of pivots.
    """
    if rows and len(rows) * ncols > budget:
        raise BudgetExceeded(f"{len(rows)}x{ncols} matrix exceeds budget {budget}")
    pivots: dict = {}
    for row in rows:
        row = _reduce(row, pivots, p)
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], p - 2, p)
        new = {col: {k: v * inv % p for k, v in row.items()}}
        for other in pivots.values():
            if col in other:
                _reduce(other, new, p)
        pivots.update(new)
    return pivots


def _nullspace_mod_p(rows: list, ncols: int, p: int, budget: int) -> list:
    """Basis of the right null space, one sparse vector per free column."""
    R = _rref_mod_p(rows, ncols, p, budget)
    basis = {f: {f: 1} for f in range(ncols) if f not in R}
    for c, row in R.items():
        for k, a in row.items():
            if k != c:
                basis[k][c] = p - a
    return list(basis.values())


def _box_index(q: int, n: int) -> dict:
    return {m: i for i, m in enumerate(product(range(q), repeat=n))}


def oracle_length_mod_bracket(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> int:
    """lambda(S / (I + n^[q])) as q^n minus the rank of all truncated multiples."""
    if not isinstance(I, IdealPresentation):
        raise TypeError(f"expected an IdealPresentation, not {type(I).__name__}")
    ring = I.ring
    _require_prime_field(ring)
    p = ring.field.characteristic
    q, n = p**e, ring.nvars
    box = _box_index(q, n)
    rows = [row for g in I.nonzero_generators() for m in box if (row := _row(g, m, box))]
    return q**n - len(_rref_mod_p(rows, q**n, p, budget))


def _degree_monomials(n: int, d: int):
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d + 1):
        for rest in _degree_monomials(n - 1, d - first):
            out.append((first,) + rest)
    return out


def _check_homogeneous(I: IdealPresentation):
    degs = []
    for g in I.nonzero_generators():
        seen = {sum(e) for e, _ in g.terms}
        if len(seen) != 1:
            raise NotHomogeneous(f"generator {g} is not homogeneous")
        degs.append(seen.pop())
    return degs


def oracle_dual_splitting_length(
    I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Dimension of the image of (I^[q] : I) in S/n^[q], degree by degree.

    K = (I^[q] : I) is homogeneous, so K_d = {f in S_d : f g_i in (I^[q]) for
    all i} can be cut out by linear conditions against an echelon basis of the
    graded pieces of I^[q]; anything of degree above n(q-1) dies in S/n^[q].
    """
    ring = I.ring
    _require_prime_field(ring)
    degs = _check_homogeneous(I)
    p = ring.field.characteristic
    q = p**e
    n = ring.nvars
    gens = I.nonzero_generators()
    if not gens:
        return q**n
    powers = [g.frobenius(e) for g in gens]
    box = _box_index(q, n)

    @cache
    def monos(d):
        """The degree-d monomials and their column index."""
        ms = _degree_monomials(n, d)
        return ms, {m: i for i, m in enumerate(ms)}

    @cache
    def bracket_piece(m):
        """The RREF of the degree-m piece of I^[q], one row per shifted power."""
        index = monos(m)[1]
        rows = [
            _row(gq, mono, index)
            for gq, d0 in zip(powers, degs)
            if m >= q * d0
            for mono in monos(m - q * d0)[0]
        ]
        return _rref_mod_p(rows, len(index), p, budget)

    image_rows = []
    for d in range(n * (q - 1) + 1):
        Sd = monos(d)[0]
        constraints = []  # residual coordinates x unknowns; zero rows stay, the budget counts them
        for g, d0 in zip(gens, degs):
            index = monos(d + d0)[1]
            E = bracket_piece(d + d0)
            block = [{} for _ in index]
            for j, mono in enumerate(Sd):
                for k, v in _reduce(_row(g, mono, index), E, p).items():
                    block[k][j] = v
            constraints += block
        for v in _nullspace_mod_p(constraints, len(Sd), p, budget):
            row = {box[Sd[j]]: c for j, c in v.items() if Sd[j] in box}
            if row:
                image_rows.append(row)
    return len(_rref_mod_p(image_rows, q**n, p, budget))
