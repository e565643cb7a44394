"""Lengths of Artinian quotients and Krull dimension from leading-term data.

Lengths count standard monomials of the leading-term ideal. The count walks
the staircase box depth-first, variable by variable, but compresses runs of
exponent values between generator thresholds, so lengths like q^n come out
in closed form instead of q^n iterations. Explicit monomial enumeration is
kept separately for callers that need the actual basis.

The count runs on packed monomials (``poly.pack``): ``m & 0xFFFF`` is the
exponent of the first remaining variable, ``m >> 17`` drops it, ``0 < m <=
0xFFFF`` is a pure power of it, and in ascending order divisors come first.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, CostGuardExceeded, NotArtinian
from .groebner import ReducedGB, _minimalize
from .poly import _FIELD_BITS, _MASK, guard_mask, pack


def is_artinian(gb: ReducedGB) -> bool:
    """True iff the leading-term ideal contains a pure power of every variable."""
    n = gb.ring.nvars
    leads = gb.lead_exponents
    if any(not any(e) for e in leads):
        return True  # unit ideal
    for i in range(n):
        if not any(e[i] > 0 and all(x == 0 for j, x in enumerate(e) if j != i) for e in leads):
            return False
    return True


def _pure_cap(gens, i: int):
    caps = [e[i] for e in gens if e[i] > 0 and all(x == 0 for j, x in enumerate(e) if j != i)]
    return min(caps) if caps else None


def _count(depth: int, gens: tuple, guard: int, memo: dict) -> int:
    """Standard monomials avoiding every generator, over the variables after the first ``depth``.

    Empty ``gens`` means no constraint is live, which only happens once all
    generators involved dropped variables; the single empty exponent counts.
    """
    if not gens:
        return 1
    if gens[0] == 0:
        return 0  # a generator divides everything
    hit = memo.get((depth, gens))
    if hit is not None:
        return hit
    cap = gens[0]  # pure powers of the first variable are the smallest
    if cap > _MASK:
        raise NotArtinian("leading-term ideal misses a pure power")
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
        total += (hi - t) * _count(depth + 1, active, guard, memo)
    memo[(depth, gens)] = total
    return total


def length(gb: ReducedGB) -> int:
    """Vector-space dimension of the quotient by gb's ideal over the coefficient field."""
    if not is_artinian(gb):
        raise NotArtinian(f"quotient by {gb!r} has infinite length")
    guard = guard_mask(gb.ring.nvars)
    return _count(0, _minimalize(map(pack, gb.lead_exponents), guard), guard, {})


def standard_monomials(gb: ReducedGB, budget: int = DEFAULT_BUDGET) -> tuple:
    """The staircase as exponent tuples, ascending under the basis order."""
    if not is_artinian(gb):
        raise NotArtinian(f"quotient by {gb!r} has infinite length")
    n = gb.ring.nvars
    leads = gb.lead_exponents
    if any(not any(e) for e in leads):
        return ()
    if n == 0:
        return ((),)
    caps = []
    box = 1
    for i in range(n):
        cap = _pure_cap(leads, i)
        caps.append(cap)
        box *= cap
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
    keyf = gb.order.key
    out.sort(key=keyf)
    return tuple(out)


def krull_dimension(gb: ReducedGB) -> int:
    """Krull dimension of the quotient, via independent variable subsets.

    Returns the size of the largest variable subset touched by no leading
    term; the unit ideal (empty variety) comes out as -1.
    """
    n = gb.ring.nvars
    supports = []
    for e in gb.lead_exponents:
        mask = 0
        for i, x in enumerate(e):
            if x:
                mask |= 1 << i
        if mask == 0:
            return -1  # unit ideal
        supports.append(mask)
    if not supports:
        return n
    best = 0
    for subset in range(1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        if all(s & ~subset for s in supports):
            best = size
    return best
