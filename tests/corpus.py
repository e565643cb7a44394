"""Shared corpus of rings and ideals with hand-derived or oracle-pinned data.

Every expected value here was either worked out by hand or recomputed with
the linear-algebra oracle before being frozen; comments mark which.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from fsplit import CoordinatePrime, IdealPresentation, PrimeChain, PrimeField, Ring
from fsplit.ringspec import parse_polynomial


@dataclass(frozen=True)
class Entry:
    name: str
    ring: Ring
    ideal: IdealPresentation
    homogeneous: bool
    hypersurface: bool
    equidimensional: bool = False
    connected: bool = False
    gorenstein: bool = True
    # s_e values pinned exactly, keyed by e
    expected_s: dict = field(default_factory=dict)
    sop: tuple = ()
    primes: tuple = ()
    chains: tuple = ()


def _ring(p, names):
    return Ring(PrimeField(p), names)


def _ideal(ring, *exprs):
    return IdealPresentation(ring, tuple(parse_polynomial(ring, s) for s in exprs))


def build_corpus() -> list:
    entries = []

    # regular anchors: zero ideal, every p and n in the acceptance sweep
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            names = ("x", "y", "z")[:n]
            R = _ring(p, names)
            entries.append(
                Entry(
                    name=f"zero_p{p}_n{n}",
                    ring=R,
                    ideal=IdealPresentation(R, ()),
                    homogeneous=True,
                    hypersurface=False,
                    equidimensional=True,
                    connected=True,
                    expected_s={e: Fraction(1) for e in range(4)},
                    sop=tuple(names),
                    primes=tuple(CoordinatePrime(names[:k]) for k in range(n + 1)),
                    chains=(tuple(names[:k] for k in range(1, n + 1)),),
                )
            )

    # node x*y in two variables: lambda = 1, s_e = 1/q (hand: J = (x, y))
    for p in (2, 3, 5):
        R = _ring(p, ("x", "y"))
        entries.append(
            Entry(
                name=f"node_p{p}",
                ring=R,
                ideal=_ideal(R, "x*y"),
                homogeneous=True,
                hypersurface=True,
                equidimensional=True,
                connected=True,
                expected_s={e: Fraction(1, p**e) for e in range(4)},
                sop=("x + y",),
                primes=(
                    CoordinatePrime(("x",)),
                    CoordinatePrime(("y",)),
                    CoordinatePrime(("x", "y")),
                ),
                chains=((("x",), ("x", "y")),),
            )
        )

    # node in three variables, for localization probes
    for p in (2, 3, 5):
        R = _ring(p, ("x", "y", "z"))
        entries.append(
            Entry(
                name=f"node3_p{p}",
                ring=R,
                ideal=_ideal(R, "x*y"),
                homogeneous=True,
                hypersurface=True,
                equidimensional=True,
                connected=True,
                expected_s={e: Fraction(1, p**e) for e in range(3)},
                sop=("x + y", "z"),
                primes=(
                    CoordinatePrime(("x",)),
                    CoordinatePrime(("x", "z")),
                    CoordinatePrime(("x", "y")),
                    CoordinatePrime(("x", "y", "z")),
                ),
                chains=(
                    (("x",), ("x", "z"), ("x", "y", "z")),
                    (("x", "y"), ("x", "y", "z")),
                ),
            )
        )

    # cusp y^2 - x^3: not F-pure in char 2 and 5 (hand: f^(q-1) lands in n^[q])
    for p in (2, 5):
        R = _ring(p, ("x", "y"))
        entries.append(
            Entry(
                name=f"cusp_p{p}",
                ring=R,
                ideal=_ideal(R, "y^2 - x^3"),
                homogeneous=False,
                hypersurface=True,
                equidimensional=True,
                connected=True,
                expected_s={0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
                sop=("x",),
                primes=(CoordinatePrime(("x", "y")),),
            )
        )

    # pair of lines x^2 - y^2 in char 3: same numbers as the node (linear change)
    R = _ring(3, ("x", "y"))
    entries.append(
        Entry(
            name="twolines_p3",
            ring=R,
            ideal=_ideal(R, "x^2 - y^2"),
            homogeneous=True,
            hypersurface=True,
            equidimensional=True,
            connected=True,
            expected_s={0: Fraction(1), 1: Fraction(1, 3), 2: Fraction(1, 9)},
            sop=("y",),
            primes=(CoordinatePrime(("x", "y")),),
        )
    )

    # quadric cone x^2 - yz in char 3: lambda = (q^2+1)/2, oracle-pinned at e=1
    R = _ring(3, ("x", "y", "z"))
    entries.append(
        Entry(
            name="quadric_p3",
            ring=R,
            ideal=_ideal(R, "x^2 - y*z"),
            homogeneous=True,
            hypersurface=True,
            equidimensional=True,
            connected=True,
            expected_s={0: Fraction(1), 1: Fraction(5, 9), 2: Fraction(41, 81)},
            sop=("y", "z"),
            primes=(
                CoordinatePrime(("x", "y")),
                CoordinatePrime(("x", "z")),
                CoordinatePrime(("x", "y", "z")),
            ),
            chains=(
                (("x", "y"), ("x", "y", "z")),
                (("x", "z"), ("x", "y", "z")),
            ),
        )
    )

    # coordinate line (x) in F_3[x,y]: regular, s_e = 1
    R = _ring(3, ("x", "y"))
    entries.append(
        Entry(
            name="line_p3",
            ring=R,
            ideal=_ideal(R, "x"),
            homogeneous=True,
            hypersurface=True,
            equidimensional=True,
            connected=True,
            expected_s={e: Fraction(1) for e in range(3)},
            sop=("y",),
            primes=(CoordinatePrime(("x",)), CoordinatePrime(("x", "y"))),
            chains=((("x",), ("x", "y")),),
        )
    )

    # fat point (x^2, xy, y^2): Artinian, non-reduced, not Gorenstein; s_e = 0 for e >= 1
    R = _ring(3, ("x", "y"))
    entries.append(
        Entry(
            name="fatpoint_p3",
            ring=R,
            ideal=_ideal(R, "x^2", "x*y", "y^2"),
            homogeneous=True,
            hypersurface=False,
            gorenstein=False,
            expected_s={0: Fraction(1), 1: Fraction(0)},
            sop=(),
        )
    )

    # non-reduced line (x^2) in F_3[x]: s_e = 0 for e >= 1 (oracle-pinned dual 0)
    R = _ring(3, ("x",))
    entries.append(
        Entry(
            name="nonreduced_p3",
            ring=R,
            ideal=_ideal(R, "x^2"),
            homogeneous=True,
            hypersurface=True,
            expected_s={0: Fraction(1), 1: Fraction(0)},
            sop=(),
        )
    )

    # (x^2 - x, xy - y) = (x, y) cap (x - 1) in F_3[x,y]: the line x = 1 misses
    # the origin, where the local ring is the field: dim 0 and s_e = 1 (hand).
    # The Gorenstein route takes the empty sop and refuses, as S/I is not
    # Artinian
    R = _ring(3, ("x", "y"))
    entries.append(
        Entry(
            name="point_off_a_line_p3",
            ring=R,
            ideal=_ideal(R, "x^2 - x", "x*y - y"),
            homogeneous=False,
            hypersurface=False,
            gorenstein=False,
            expected_s={e: Fraction(1) for e in range(3)},
            primes=(CoordinatePrime(("x", "y")),),
        )
    )

    # (x(y - z), y(y - z)) = (x, y) cap (y - z) in F_3[x,y,z], a line and a plane
    # through the origin: lambda = 1 at the origin for e = 1, 2 (oracle-pinned),
    # dim 2. At P = (x, y) the plane misses V(P), as y - z is a unit in R_P, so
    # R_P is the field F_3(z) and s_e = 1 (hand). Not Cohen-Macaulay
    R = _ring(3, ("x", "y", "z"))
    entries.append(
        Entry(
            name="line_and_plane_p3",
            ring=R,
            ideal=_ideal(R, "x*(y - z)", "y*(y - z)"),
            homogeneous=True,
            hypersurface=False,
            connected=True,
            gorenstein=False,
            expected_s={0: Fraction(1), 1: Fraction(1, 9), 2: Fraction(1, 81)},
            primes=(CoordinatePrime(("x", "y")), CoordinatePrime(("x", "y", "z"))),
        )
    )

    return entries


CORPUS = build_corpus()
BY_NAME = {entry.name: entry for entry in CORPUS}


def sop_polynomials(entry: Entry):
    return tuple(parse_polynomial(entry.ring, s) for s in entry.sop)


def chain_of(entry: Entry, subsets) -> PrimeChain:
    return PrimeChain(tuple(CoordinatePrime(tuple(s)) for s in subsets))


def matlis_pairs():
    """(ideal, e) pairs exercised by the duality and oracle checks."""
    pairs = []
    for entry in CORPUS:
        for e in sorted(entry.expected_s):
            if e <= 2:
                pairs.append((entry, e))
    return pairs
