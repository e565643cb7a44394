"""Lengths of Artinian quotients and Krull dimension from leading-term data.

Lengths count standard monomials of the leading-term ideal. The count walks
the staircase box depth-first, variable by variable, but compresses runs of
exponent values between generator thresholds, so lengths like q^n come out
in closed form instead of q^n iterations. Explicit monomial enumeration is
kept separately for callers that need the actual basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, CostGuardExceeded, NotArtinian
from .groebner import ReducedGB


def _minimalize(gens):
    out = []
    for g in sorted(set(gens)):
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out = [h for h in out if not all(x <= y for x, y in zip(g, h))]
            out.append(g)
    return tuple(sorted(out))


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


def _count(gens: tuple, memo: dict) -> int:
    """Standard monomials avoiding every generator, over the remaining variables.

    Empty ``gens`` means no constraint is live, which only happens once all
    generators involved dropped variables; the single empty exponent counts.
    """
    if any(not any(e) for e in gens):
        return 0  # a generator divides everything
    if not gens:
        return 1
    hit = memo.get(gens)
    if hit is not None:
        return hit
    cap = _pure_cap(gens, 0)
    if cap is None:
        raise NotArtinian("leading-term ideal misses a pure power")
    thresholds = sorted({e[0] for e in gens if e[0] < cap} | {0})
    total = 0
    for idx, t in enumerate(thresholds):
        hi = thresholds[idx + 1] if idx + 1 < len(thresholds) else cap
        active = _minimalize(e[1:] for e in gens if e[0] <= t)
        total += (hi - t) * _count(active, memo)
    memo[gens] = total
    return total


def length(gb: ReducedGB) -> int:
    """Vector-space dimension of the quotient by gb's ideal over the coefficient field."""
    if not is_artinian(gb):
        raise NotArtinian(f"quotient by {gb!r} has infinite length")
    leads = gb.lead_exponents
    if any(not any(e) for e in leads):
        return 0
    if gb.ring.nvars == 0:
        return 1
    return _count(_minimalize(leads), {})


@dataclass(frozen=True)
class StaircaseBasis:
    """The standard monomials of an Artinian quotient, as exponent tuples."""

    gb: ReducedGB
    monomials: tuple

    def __len__(self):
        return len(self.monomials)


def standard_monomials(gb: ReducedGB, budget: int = DEFAULT_BUDGET) -> StaircaseBasis:
    """Enumerate the staircase explicitly (ascending under the basis order)."""
    if not is_artinian(gb):
        raise NotArtinian(f"quotient by {gb!r} has infinite length")
    n = gb.ring.nvars
    leads = _minimalize(gb.lead_exponents)
    if any(not any(e) for e in leads):
        return StaircaseBasis(gb, ())
    if n == 0:
        return StaircaseBasis(gb, ((),))
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
    return StaircaseBasis(gb, tuple(out))


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
