"""Brute-force verifier: dense linear algebra over F_p on the box [0,q)^n.

No Groebner machinery is used anywhere here; this module exists to check the
main path and to pin derived fixture values. Simplicity over speed, with an
explicit matrix-entry budget.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, FieldMismatch, NotHomogeneous
from .fields import PrimeField
from .poly import IdealPresentation


def _require_prime_field(ring):
    if not isinstance(ring.field, PrimeField):
        raise FieldMismatch("the oracle only supports F_p coefficients")


def _rref_mod_p(rows: list, ncols: int, p: int, budget: int):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Pivots are the first nonzero entry from the top, so the result is
    deterministic; the rank is the number of pivots.
    """
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64), []
    if len(rows) * ncols > budget:
        raise BudgetExceeded(f"{len(rows)}x{ncols} matrix exceeds budget {budget}")
    M = np.array(rows, dtype=np.int64) % p
    nrows = M.shape[0]
    pivots = []
    rank = 0
    for col in range(ncols):
        below = np.flatnonzero(M[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            M[[rank, pivot]] = M[[pivot, rank]]
        inv = pow(int(M[rank, col]), p - 2, p)
        M[rank] = M[rank] * inv % p
        others = np.flatnonzero(M[:, col])
        others = others[others != rank]
        if others.size:
            M[others] = (M[others] - np.outer(M[others, col], M[rank])) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return M[:rank], pivots


def _nullspace_mod_p(rows: list, ncols: int, p: int, budget: int) -> list:
    """Deterministic basis of the right nullspace as coefficient vectors."""
    R, pivots = _rref_mod_p(rows, ncols, p, budget)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-int(R[r, f])) % p
        basis.append(v)
    return basis


def _box_index(q: int, n: int):
    mons = list(product(range(q), repeat=n))
    return mons, {m: i for i, m in enumerate(mons)}


def oracle_length_mod_bracket(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> int:
    """lambda(S / (I + n^[q])) as q^n minus the rank of all truncated multiples."""
    if not isinstance(I, IdealPresentation):
        raise TypeError(f"expected an IdealPresentation, not {type(I).__name__}")
    ring = I.ring
    _require_prime_field(ring)
    p = ring.field.characteristic
    q = p**e
    n = ring.nvars
    qn = q**n
    mons, index = _box_index(q, n)
    rows = []
    for g in I.nonzero_generators():
        for m in mons:
            row = [0] * qn
            nonzero = False
            for exps, c in g.terms:
                shifted = tuple(a + b for a, b in zip(exps, m))
                if all(a < q for a in shifted):
                    row[index[shifted]] = (row[index[shifted]] + c) % p
                    nonzero = True
            if nonzero and any(row):
                rows.append(row)
    return qn - len(_rref_mod_p(rows, qn, p, budget)[1])


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
    qn = q**n
    gens = I.nonzero_generators()
    if not gens:
        return qn
    powers = [g.frobenius(e) for g in gens]
    _, box_index = _box_index(q, n)

    max_deg = n * (q - 1)
    mono_cache: dict = {}

    def monos(d):
        if d not in mono_cache:
            mono_cache[d] = _degree_monomials(n, d)
        return mono_cache[d]

    # echelon bases of the graded pieces of I^[q] that can receive products
    piece_cache: dict = {}

    def bracket_piece(m):
        if m not in piece_cache:
            rows = []
            for gq, d0 in zip(powers, degs):
                shift_deg = m - q * d0
                if shift_deg < 0:
                    continue
                for mono in monos(shift_deg):
                    target = monos(m)
                    idx = {mm: i for i, mm in enumerate(target)}
                    row = [0] * len(target)
                    for exps, c in gq.terms:
                        key = tuple(a + b for a, b in zip(exps, mono))
                        row[idx[key]] = (row[idx[key]] + c) % p
                    rows.append(row)
            piece_cache[m] = _rref_mod_p(rows, len(monos(m)), p, budget)
        return piece_cache[m]

    image_rows = []
    for d in range(max_deg + 1):
        Sd = monos(d)
        constraints = []
        for g, d0 in zip(gens, degs):
            target = monos(d + d0)
            idx = {mm: i for i, mm in enumerate(target)}
            E, pivots = bracket_piece(d + d0)
            cols = []
            for mono in Sd:
                vec = np.zeros(len(target), dtype=np.int64)
                for exps, c in g.terms:
                    key = tuple(a + b for a, b in zip(exps, mono))
                    vec[idx[key]] = (vec[idx[key]] + c) % p
                for r, piv in enumerate(pivots):
                    if vec[piv]:
                        vec = (vec - vec[piv] * E[r]) % p
                cols.append(vec)
            block = np.stack(cols, axis=1)  # residual coords x unknowns
            constraints.extend(block.tolist())
        kernel = _nullspace_mod_p(constraints, len(Sd), p, budget)
        for v in kernel:
            row = [0] * qn
            nonzero = False
            for coeff, mono in zip(v, Sd):
                if coeff and all(a < q for a in mono):
                    row[box_index[mono]] = int(coeff)
                    nonzero = True
            if nonzero:
                image_rows.append(row)
    return len(_rref_mod_p(image_rows, qn, p, budget)[1])
