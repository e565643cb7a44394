"""Lengths of Artinian quotients and Krull dimension from leading-term data.

Lengths count standard monomials of the leading-term ideal. The count walks
the staircase box depth-first, variable by variable, but compresses runs of
exponent values between generator thresholds, so lengths like q^n come out
in closed form instead of q^n iterations. Explicit monomial enumeration is
kept separately for callers that need the actual basis.

Everything but ``standard_monomials`` reads ``ReducedGB.leads``, the packed
leading monomials (``poly.pack``): ``m & 0xFFFF`` is the exponent of the
first remaining variable, ``m >> 17`` drops it, ``0 < m <= 0xFFFF`` is a pure
power of it, and in ascending order divisors come first. A lead's
``_support`` holds the guard bit of each variable it involves.
"""

from __future__ import annotations

from math import prod

from .errors import DEFAULT_BUDGET, CostGuardExceeded, NotArtinian
from .groebner import ReducedGB, _minimalize, _support
from .poly import _FIELD_BITS, _MASK, guard_mask


def is_artinian(gb: ReducedGB) -> bool:
    """True iff the leading-term ideal contains a pure power of every variable."""
    guard = guard_mask(gb.ring.nvars)
    pure = {s for s in (_support(m, guard) for m in gb.leads) if not s & (s - 1)}
    return 0 in pure or sum(pure) == guard  # 0: the unit ideal


def _count(gens: tuple, nvars: int, guard: int, memo: dict) -> int:
    """Standard monomials avoiding every generator, over the last ``nvars`` variables.

    Each level drops the first variable from every generator. With no
    variable left, only the empty exponent remains.
    """
    if gens and gens[0] == 0:
        return 0  # a generator divides everything
    if not nvars:
        return 1
    # pure powers of the first variable are the smallest generators
    if not gens or gens[0] > _MASK:
        raise NotArtinian("the leading-term ideal misses a pure power")
    hit = memo.get((nvars, gens))
    if hit is not None:
        return hit
    cap = gens[0]
    # the rest of each generator, by its first exponent; thresholds ascend and
    # the active set only grows, so the minimal set of the previous threshold
    # plus the newly included generators has the same minimal set as all of them
    fresh: dict[int, list] = {0: []}
    for m in gens:
        if m & _MASK < cap:
            fresh.setdefault(m & _MASK, []).append(m >> _FIELD_BITS)
    thresholds = sorted(fresh)
    total = 0
    active: tuple = ()
    for idx, t in enumerate(thresholds):
        hi = thresholds[idx + 1] if idx + 1 < len(thresholds) else cap
        active = _minimalize(active + tuple(fresh[t]), guard)
        total += (hi - t) * _count(active, nvars - 1, guard, memo)
    memo[(nvars, gens)] = total
    return total


def length(gb: ReducedGB) -> int:
    """Vector-space dimension of the quotient by gb's ideal over the coefficient field."""
    n = gb.ring.nvars
    guard = guard_mask(n)
    return _count(_minimalize(gb.leads, guard), n, guard, {})


def standard_monomials(gb: ReducedGB, budget: int = DEFAULT_BUDGET) -> tuple:
    """The staircase as exponent tuples, ascending under the basis order.

    A reference for ``length``: it reads the leads off the Polynomials and
    enumerates the box of pure-power caps.
    """
    leads = [g.leading_term(gb.order)[0] for g in gb.basis]
    if any(not any(e) for e in leads):
        return ()  # unit ideal
    n = gb.ring.nvars
    caps = []
    for i in range(n):
        pure = [e[i] for e in leads if e[i] and not any(e[:i] + e[i + 1:])]
        if not pure:
            raise NotArtinian(f"quotient by {gb!r} has infinite length")
        caps.append(min(pure))
    box = prod(caps)
    if box > budget:
        raise CostGuardExceeded(f"staircase box {box} exceeds budget {budget}")
    out = []

    def walk(prefix):
        i = len(prefix)
        live = [e for e in leads if all(x <= y for x, y in zip(e, prefix))]
        if any(all(x == 0 for x in e[i:]) for e in live):
            return
        if i == n:
            out.append(tuple(prefix))
            return
        for a in range(caps[i]):
            walk(prefix + [a])

    walk([])
    out.sort(key=gb.order.key)
    return tuple(out)


def krull_dimension(gb: ReducedGB) -> int:
    """Krull dimension of the quotient, via independent variable subsets.

    Returns the size of the largest variable subset (a set of guard bits)
    that holds no lead's support; the unit ideal (empty variety) comes out
    as -1.
    """
    guard = guard_mask(gb.ring.nvars)
    supports = {_support(m, guard) for m in gb.leads}
    if 0 in supports:
        return -1  # unit ideal
    best, free = 0, guard
    while free:  # every nonempty subset of the guard bits
        size = free.bit_count()
        if size > best and all(s & ~free for s in supports):
            best = size
        free = (free - 1) & guard
    return best
