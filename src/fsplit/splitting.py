"""Normalized Frobenius splitting numbers and F-signature estimates.

The splitting length at the origin is computed two independent ways and the
agreement is asserted on every call:

  primal:  lambda(S / (n^[q] : (I^[q] : I)))
  dual:    lambda((((I^[q] : I)) + n^[q]) / n^[q]) = q^n - lambda(S / (K + n^[q]))

with n the ideal of all ring variables, q = p^e, K = (I^[q] : I), and the
zero-ideal convention (0^[q] : 0) = S. The normalized number is
s_e = lambda / q^dim as an exact rational, and a_e = s_e * q^(dim + alpha).

Everything is anchored at the origin. Each entry point, and each sweep of
``f_signature_sequence``, sets I up once (``_origin_dimension``): it rejects
the unit ideal (NotArtinian) and a proper I with a constant term in a
generator, whose V(I) misses the origin (NotContaining), and gives dim, the
Krull dimension of the local ring S_n/I*S_n, from one basis of I
homogenized. The length lambda is local to the origin too, as n^[q] lies in
J, so s_e is an invariant of the local ring, even when a component of V(I)
away from the origin has a larger dimension than every one through it.

After that set-up, ``_eliminate_linear`` solves out linear variables: while
some generator is c*x_i + h, with c a nonzero field element, x_i in no other
term of it and h a single term or zero, x_i := -h/c goes into the other
generators, and that generator and x_i are dropped. This is a ring
isomorphism S/I = S'/I', and h has no constant term (the origin check has
run), so it keeps the origin and the local ring there. Every reported number
is an invariant of R = S/I: lambda = lambda(R/I_e), with I_e the image of
n^[q] : (I^[q] : I) (Fedder), dim is the Krull dimension of R, and alpha
and q are those of the field. So both routes run, and must agree, on the
smaller ring. Localizing a hypersurface such as ad - bc at a coordinate
prime in its regular locus leaves such a generator, and that probe row runs
on the zero ideal of a ring with one variable fewer. ``_guard`` still
refuses on the given ring, before any elimination, and ``splitting_ideal``
and the Gorenstein route keep the given presentation.

A Gorenstein route through a system of parameters and a socle generator u
of S/A, A = I + (sop), is an independent cross-check with no colon and no
elimination. Its length lambda(S / (B : w)), B = I + sop^[q] and w = u^q,
comes from the exact sequence

  0 -> S/(B : w) -(*w)-> S/B -> S/(B + (w)) -> 0

as lambda(S/B) - lambda(S/(B + (w))): two grevlex bases and two staircase
counts. S/B is Artinian, as it has the radical of S/A. Each sop element,
as each generator of I, must lie in n, so n/A is a prime, hence an
associated one, of the Artinian ring S/A, and its socle (A : n)/A is not
zero. It is the common kernel of multiplication by x_1..x_n on the
staircase, by Gaussian elimination over the coefficient field; u comes out
monic and in normal form mod A, and (A : n) = A + k*u, so one normal form
checks a supplied u, and the computed u is the one used. This socle work
runs once per call. The route shares only grevlex Buchberger and the
staircase count with the colon route, on a different ideal.

The pure powers x_i^q that present n^[q] are already a grevlex Groebner
basis, so the primal colon and ``hypersurface_is_fpure`` take its reduced
basis from ``interreduce`` and run no Buchberger on n^[q].

Both routes see K only through K + n^[q], so K is built modulo n^[q]. For a
principal I = (f), K = (f^(q-1)) (Fedder, "F-purity and rational
singularity", Trans. AMS 1983), and ``poly._base_p_power`` gives f^(q-1)
modulo n^[q] exactly without forming f^(q-1), as a product over the base-p
digits of q - 1, all p - 1, truncated at q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .artinian import is_artinian, krull_dimension, length
from .errors import (
    DEFAULT_BUDGET,
    CostGuardExceeded,
    ExponentOverflow,
    InternalInconsistency,
    InvalidSocle,
    NotArtinian,
    NotContaining,
    NotGorenstein,
    excerpt,
)
from .groebner import (
    ReducedGB,
    _internal,
    _key_degree,
    _nf,
    _Working,
    buchberger,
    ideal_member,
    interreduce,
    normal_form,
)
from .ideals import _extended_ring, colon_ideal, frobenius_power, ideal_sum
from .poly import (
    _FIELD_BITS,
    EXPONENT_LIMIT,
    GREVLEX,
    IdealPresentation,
    Polynomial,
    Ring,
    _base_p_power,
    _key_weights,
    guard_mask,
    unpack,
)


@dataclass(frozen=True)
class SplittingReport:
    """One (e, q, lambda, dim, alpha, s_e, a_e) record."""

    e: int
    q: int
    splitting_length: int
    dim: int
    alpha: int
    s_e: Fraction
    a_e: int

    def to_json_obj(self) -> dict:
        return {
            "e": self.e,
            "q": self.q,
            "lambda": str(self.splitting_length),
            "dim": self.dim,
            "alpha": self.alpha,
            "s_e": str(self.s_e),
            "a_e": str(self.a_e),
        }


@dataclass(frozen=True)
class SignatureEstimate:
    """Reports for e = 0..e_max plus tail extrema and a positivity flag."""

    reports: tuple
    tail_max: Fraction | None
    tail_min: Fraction | None
    positive: bool

    def values(self) -> tuple:
        return tuple(r.s_e for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "reports": [r.to_json_obj() for r in self.reports],
            "tail_max": None if self.tail_max is None else str(self.tail_max),
            "tail_min": None if self.tail_min is None else str(self.tail_min),
            "positive": self.positive,
        }


def _guard(ring: Ring, e: int, budget: int) -> int:
    """q = p^e; refuses q^n over the budget, or when n = 0, q and then q^alpha.

    Reports print q and a_e, and with no variable left a_e <= q^alpha.
    """
    if e < 0:
        raise ValueError("e must be nonnegative")
    n, p = ring.nvars, ring.field.characteristic
    powers = [("q^n", n)] if n else [("q", 1), ("q^alpha", max(ring.field.alpha(), 1))]
    for name, k in powers:
        # p^(e*k) >= 2^(e*k) > budget once e*k reaches its bit length: no huge power
        if e * k >= budget.bit_length() or p ** (e * k) > budget:
            raise CostGuardExceeded(
                f"{name} = {p}^{e * k} exceeds the standard-monomial budget {budget}"
            )
    return p**e


def _origin_dimension(I: IdealPresentation) -> int:
    """dim S_n/I*S_n, the Krull dimension of S/I at the origin, on V(I).

    A generator with a constant term puts the origin off V(I): the unit
    ideal raises NotArtinian, which its reduced grevlex basis shows, and a
    proper I NotContaining. Zero or one generator, now in n, needs no
    basis: the dimension is n minus their number. Otherwise Lazard's method
    takes one basis: each generator g is homogenized with a new first
    variable h, the term x^a getting h^(deg g - |a|), under the elim(1)
    order of ``ideals._extended_ring``. On homogeneous input it ranks the
    monomials of one degree as the homogenized local degree order does (the
    larger power of h first, then grevlex), so its leads with h set to 1
    generate the leading ideal L(I) of a local degree order, and
    dim S_n/I*S_n = dim S/L(I) (Greuel and Pfister, *A Singular
    Introduction to Commutative Algebra*, section 1.7 and chapter 5). No
    lead is a pure power of h, as I lies in n. For a homogeneous I no h
    appears, and the basis is its grevlex basis.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    if any(not any(x) for g in gens for x, _ in g.terms):
        if buchberger(I, GREVLEX).is_unit_ideal():
            raise NotArtinian("the quotient is the zero ring; splitting numbers are undefined")
        _require_in_prime(gens, range(ring.nvars), "generator")
    if len(gens) < 2:
        return ring.nvars - len(gens)
    ext = _extended_ring(ring)
    homogenized = []
    for k, g in enumerate(gens, start=1):
        d = g.total_degree()
        gap = d - min(sum(x) for x, _ in g.terms)
        if gap >= EXPONENT_LIMIT:
            raise ExponentOverflow(
                f"generator {k} ({excerpt(g)}) cannot be homogenized: "
                f"its degree gap {gap} overflows 16-bit exponents"
            )
        homogenized.append(ext.from_terms({(d - sum(x),) + x: c for x, c in g.terms}))
    G = buchberger(ext.ideal(*homogenized))
    one = ring.field.one()
    local = [[(0, m >> _FIELD_BITS, one)] for m in G.leads]  # h set to 1: h is field 0
    return krull_dimension(ReducedGB(ring, GREVLEX, local))


def _require_in_prime(polys, idx, what: str, where="is not contained in the ideal of the origin"):
    """Raise NotContaining, naming it by position, for the first of ``polys``
    outside the prime of the variables at positions ``idx``: a polynomial
    lies in that prime iff each of its terms involves one of them."""
    for k, g in enumerate(polys, start=1):
        if any(not any(x[i] for i in idx) for x, _ in g.terms):
            raise NotContaining(f"{what} {k} ({excerpt(g)}) {where}")


def _eliminate_linear(I: IdealPresentation, e: int) -> IdealPresentation:
    """I with its linear variables solved out, by the rule in the module docstring.

    A power x_i^k becomes the single term (-h/c)^k, so no generator gains a
    term. A variable is kept when its substitution would give an exponent a
    with a*q past 2^16 - 1, q = p^e, so forming I^[q], as the colon route
    does for two or more generators, overflows only where it does for the
    given presentation. Returns I itself when nothing is solved.
    """
    ring = I.ring
    field = ring.field
    # p^16 >= 2^16, so the bound is 0 from e = 16 on, with no huge power
    limit = (EXPONENT_LIMIT - 1) // field.characteristic ** min(e, 16)
    gens = [g.terms for g in I.nonzero_generators()]
    solved = []
    j = 0
    while j < len(gens):
        rest = gens[:j] + gens[j + 1 :]
        for i, image in _linear_solutions(gens[j], field):
            images = [_substitute(g, i, image, field, limit) for g in rest]
            if None not in images:
                gens = [g for g in images if g]
                solved.append(i)
                j = 0
                break
        else:
            j += 1
    if not solved:
        return I
    keep = [i for i in range(ring.nvars) if i not in solved]
    small = Ring(field, [ring.variables[i] for i in keep], ring.order)
    return IdealPresentation(
        small,
        [small.from_terms({tuple(x[i] for i in keep): c for x, c in g}) for g in gens],
    )


def _linear_solutions(terms: tuple, field):
    """Each (i, image) that reads terms as c*x_i + h with x_i not in h, h one
    term or zero; image is (exponents, coefficient) of -h/c, or None for h = 0."""
    if len(terms) > 2:
        return
    for k, (x, c) in enumerate(terms):
        if sum(x) != 1:
            continue
        i = x.index(1)
        if len(terms) == 1:
            yield i, None
            continue
        hx, hc = terms[1 - k]
        if not hx[i]:
            yield i, (hx, field.neg(field.div(hc, c)))


def _substitute(terms: tuple, i: int, image, field, limit: int) -> tuple | None:
    """terms with x_i := image (None for 0), or None when a substituted
    exponent would pass ``limit``; the result is a term tuple in no fixed order."""
    acc: dict = {}
    for x, c in terms:
        k = x[i]
        if k:
            if image is None:
                continue
            hx, r = image
            x = tuple(0 if v == i else a + k * b for v, (a, b) in enumerate(zip(x, hx)))
            if max(x) > limit:
                return None
            c = field.mul(c, field.pow(r, k))
        old = acc.get(x)
        acc[x] = c if old is None else field.add(old, c)
    return tuple((x, c) for x, c in acc.items() if not field.is_zero(c))


def _colon_multiplier(I: IdealPresentation, e: int) -> IdealPresentation:
    """K = (I^[q] : I) modulo n^[q], with (0^[q] : 0) = S for the zero ideal.

    Returns generators of an ideal K' with K' + n^[q] = K + n^[q], since both
    routes only ever see K + n^[q]. For a principal I = (f), S is a domain,
    so K = (f^(q-1)) exactly (Fedder), and K' is generated by f^(q-1) with
    every term that has an exponent >= q dropped (``poly._base_p_power`` with
    k = q - 1 and cap = q). When that is zero, f^(q-1) lies in n^[q] and K'
    is n^[q] itself, so the primal colon is S at once and the dual length 0.
    Any other I goes through ``colon_ideal`` and K' = K.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    if not gens:
        return IdealPresentation(ring, (ring.one(),))
    if len(gens) == 1:
        q = ring.field.characteristic**e
        k = _base_p_power(gens[0], q - 1, q)
        if k.is_zero():
            return frobenius_power(ring.variable_ideal(), e)
        return IdealPresentation(ring, (k,))
    K = colon_ideal(frobenius_power(I, e), I)
    return K.presentation()


def _primal_gb(nq: IdealPresentation, K: IdealPresentation) -> ReducedGB:
    return colon_ideal(interreduce(nq.ring, nq.generators, GREVLEX), K)


def _dual_length(q: int, nq: IdealPresentation, K: IdealPresentation) -> int:
    return q**nq.ring.nvars - length(buchberger(ideal_sum(K, nq), GREVLEX))


def splitting_ideal(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> ReducedGB:
    """Groebner basis of J = n^[q] : (I^[q] : I), the splitting-length ideal."""
    _guard(I.ring, e, budget)
    _origin_dimension(I)
    return _primal_gb(frobenius_power(I.ring.variable_ideal(), e), _colon_multiplier(I, e))


def normalized_splitting_number(
    I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET
) -> SplittingReport:
    """SplittingReport at the origin; primal and dual lengths must agree exactly."""
    q = _guard(I.ring, e, budget)
    d = _origin_dimension(I)
    return _splitting_report(_eliminate_linear(I, e), e, q, d)


def _splitting_report(I: IdealPresentation, e: int, q: int, d: int) -> SplittingReport:
    """The report at one e for an I already set up, with d = dim S/I."""
    nq = frobenius_power(I.ring.variable_ideal(), e)
    K = _colon_multiplier(I, e)
    lam = length(_primal_gb(nq, K))
    dual = _dual_length(q, nq, K)
    if dual != lam:
        raise InternalInconsistency(
            f"primal splitting length {lam} != dual splitting length {dual}"
        )
    return _make_report(I, e, lam, d)


def _make_report(I: IdealPresentation, e: int, lam: int, d: int) -> SplittingReport:
    """a_e counts free summands of F^e_* R, of rank q^(dim + alpha), so s_e <= 1."""
    field = I.ring.field
    q = field.characteristic**e
    a = field.alpha()
    s = Fraction(lam, q**d)
    a_e = s * q ** (d + a)
    if a_e.denominator != 1:
        raise InternalInconsistency(f"a_e = {a_e} is not an integer")
    if s > 1:
        raise InternalInconsistency(
            f"{I} in {I.ring!r} at e = {e}: s_e = {s} exceeds 1 (lambda = {lam}, dim = {d})"
        )
    return SplittingReport(e, q, lam, d, a, s, int(a_e))


def hypersurface_is_fpure(f: Polynomial, e: int) -> bool:
    """Fedder-style membership test: f^(q-1) outside n^[q].

    Independent of the colon route; for I = (f) this is equivalent to
    s_e(S/(f)) > 0, and the test suite holds the two routes to agreement.
    """
    if e < 1:
        raise ValueError("F-purity test needs e >= 1")
    ring = f.ring
    q = ring.field.characteristic**e
    nq = interreduce(ring, frobenius_power(ring.variable_ideal(), e).generators, GREVLEX)
    return not ideal_member(f ** (q - 1), nq)


def _socle(GA: ReducedGB, budget: int) -> tuple:
    """The dimension of the socle (A : n)/A of S/A, nonzero as A lies in n,
    and one nonzero element u of it, monic and in normal form mod GA.

    The socle is the common kernel of multiplication by x_1..x_n on S/A,
    whose basis is the staircase of GA. The staircase is closed under
    division, so it grows from 1 by multiplying by each variable; a product
    that some lead divides is off it, and its image is its normal form mod
    GA. Row (i, r) of the stacked maps holds the m_r-coefficient of x_i*m_j
    in column j, and ``_kernel`` solves them. The staircase is refused when
    it has more monomials than ``budget``, before any is enumerated.
    """
    ring = GA.ring
    n, field = ring.nvars, ring.field
    size = length(GA)
    if size > budget:
        raise CostGuardExceeded(
            f"the staircase of S/(I + sop) has {size} monomials, over the budget {budget}"
        )
    basis, leads = GA._terms, GA.leads
    guard = guard_mask(n)
    k0, weights = _key_weights(GREVLEX.key, n)
    units = [1 << (_FIELD_BITS * i) for i in range(n)]
    one = field.one()
    stairs = [0]
    index = {0: 0}
    off = {}  # product off the staircase -> its normal form
    for m in stairs:  # grows while it is walked
        for x in units:
            mx = m + x
            if mx in index or mx in off:
                continue
            g = mx | guard
            if any((g - l) & guard == guard for l in leads):
                term = [(_key_degree(mx, k0, weights)[0], mx, one)]
                off[mx] = _nf(term, basis, leads, field, guard)
            else:
                index[mx] = len(stairs)
                stairs.append(mx)
    rows: dict = {}
    for j, m in enumerate(stairs):
        for i, x in enumerate(units):
            mx = m + x
            image = ((mx, one),) if mx in index else ((t[1], t[2]) for t in off[mx])
            for mr, c in image:
                rows.setdefault((i, index[mr]), {})[j] = c
    dim, v = _kernel(rows.values(), len(stairs), field)
    u = ring.from_terms({unpack(stairs[j], n): c for j, c in v.items()})
    return dim, u.monic(GREVLEX)


def _kernel(rows, ncols: int, field) -> tuple:
    """The dimension of the nonzero space {v in k^ncols : row . v = 0 for
    every row} and one nonzero v in it, rows and v as {column: coefficient}
    dicts, by Gaussian elimination.

    Each pivot row is monic in its pivot, its least column, so subtracting it
    clears that column and adds only larger ones: a new row is reduced by
    clearing its least column while that is a pivot. v is 1 at the first free
    column and 0 at the others, and is solved from the largest pivot down.
    """
    is_zero, add, mul, neg = field.is_zero, field.add, field.mul, field.neg
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            p = min(row)
            pivot = pivots.get(p)
            if pivot is None:
                inv = field.inv(row[p])
                pivots[p] = {col: mul(c, inv) for col, c in row.items()}
                break
            a = row.pop(p)
            for col, c in pivot.items():
                if col != p:
                    c = neg(mul(a, c))
                    c = add(row[col], c) if col in row else c
                    if is_zero(c):
                        del row[col]
                    else:
                        row[col] = c
    free = [col for col in range(ncols) if col not in pivots]
    v = {free[0]: field.one()}
    for p in sorted(pivots, reverse=True):
        acc = field.zero()
        for col, c in pivots[p].items():
            if col in v:
                acc = add(acc, mul(c, v[col]))
        if not is_zero(acc):
            v[p] = neg(acc)
    return len(free), v


def _socle_bases(I: IdealPresentation, sop: tuple, budget: int) -> tuple:
    """The reduced basis GA of A = I + (sop) and the socle generator u of S/A.

    Checks that I and every sop element are at the origin, that sop has as
    many elements as the Krull dimension, that S/A is Artinian, and that its
    socle (A : n)/A is one-dimensional (``_socle``, no colon). u is monic and
    in normal form mod GA, and (A : n) = A + k*u, so one normal form mod GA
    checks a supplied u.
    """
    ring = I.ring
    d = _origin_dimension(I)
    if len(sop) != d:
        raise NotArtinian(f"sop has {len(sop)} elements but the quotient has dimension {d}")
    _require_in_prime(sop, range(ring.nvars), "sop element")
    A = ideal_sum(I, IdealPresentation(ring, sop))
    GA = buchberger(A, GREVLEX)
    if not is_artinian(GA):
        raise NotArtinian("the parameter ideal does not cut down to dimension zero")
    dim, u = _socle(GA, budget)
    if dim != 1:
        raise NotGorenstein(f"socle has vector-space dimension {dim}, not 1")
    return GA, u


def socle_generator(I: IdealPresentation, sop, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """A lift of the socle generator of S/(I + (sop)); errors if not Gorenstein.

    ``sop`` must be a system of parameters at the origin: as many elements as
    the Krull dimension, each in n, with Artinian quotient. Zero-dimensional
    rings take the empty sop by convention. The socle is the common kernel of
    the multiplication maps of S/(I + (sop)) on a staircase of at most
    ``budget`` monomials (``_socle``). The lift u returned is monic and in
    normal form mod I + (sop), and (I + (sop)) : n = I + (sop) + k*u, so one
    normal form checks a supplied u (``gorenstein_splitting_number``).
    """
    return _socle_bases(I, tuple(sop), budget)[1]


def _gorenstein_length(B: IdealPresentation, w: Polynomial) -> int:
    """lambda(S / (B : w)) for an Artinian S/B, with no colon.

    The sequence 0 -> S/(B : w) -(*w)-> S/B -> S/(B + (w)) -> 0 is exact,
    so the length is lambda(S/B) - lambda(S/(B + (w))): two grevlex bases,
    the second seeded with the first, and two staircase counts.
    """
    GB = buchberger(B, GREVLEX)
    k0, weights = _key_weights(GREVLEX.key, B.ring.nvars)
    gens = [(t, _key_degree(t[0][1], k0, weights)[1]) for t in GB._terms]
    gens.append((_internal(w, GREVLEX.key), w.total_degree()))
    return length(GB) - length(buchberger(_Working(B.ring, gens), GREVLEX))


def gorenstein_splitting_number(
    I: IdealPresentation,
    sop,
    e: int,
    u: Polynomial | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SplittingReport:
    """Splitting report via the Gorenstein route lambda(R u^q + sop^[q] / sop^[q]).

    Computed in the ambient ring as lambda(S / ((I + sop^[q]) : u^q)), by
    ``_gorenstein_length``, with u the computed socle generator u0, monic
    and in normal form mod A = I + (sop). As (A : n) = A + k*u0, a supplied
    u is checked with one normal form r of u mod A: r must be nonzero, and r
    made monic must be u0. It is not computed with: any accepted
    u = c*u0 + a, a in A, gives the same lambda as u0, as a^q lies in A^[q],
    inside B. The staircase of S/A is held to ``budget``.
    """
    ring = I.ring
    sop = tuple(sop)
    _guard(ring, e, budget)
    if u is None:
        u0 = socle_generator(I, sop, budget)
    else:
        GA, u0 = _socle_bases(I, sop, budget)
        r = normal_form(u, GA)
        if r.is_zero():
            raise InvalidSocle("supplied socle element lies in the parameter ideal")
        if r.monic(GREVLEX) != u0:
            raise InvalidSocle("supplied element does not annihilate the maximal ideal")
    B = ideal_sum(I, frobenius_power(IdealPresentation(ring, sop), e))
    return _make_report(I, e, _gorenstein_length(B, u0.frobenius(e)), len(sop))


def f_signature_sequence(
    I: IdealPresentation, e_max: int, budget: int = DEFAULT_BUDGET
) -> SignatureEstimate:
    """Reports for e = 0..e_max with tail extrema over e >= 1 and positivity.

    Frobenius is flat on S, so lambda_(e+1) <= p^n * lambda_e, with n the
    variables left after ``_eliminate_linear``; a step that breaks the bound
    raises InternalInconsistency.
    """
    if e_max < 1:
        raise ValueError("e_max must be positive")
    ring = I.ring
    reports = []
    for e in range(e_max + 1):
        try:
            q = _guard(ring, e, budget)
        except CostGuardExceeded as exc:
            raise CostGuardExceeded(
                str(exc), partial=_assemble_estimate(tuple(reports))
            ) from exc
        if e == 0:  # once per sweep, after the first guard
            d = _origin_dimension(I)
            J = _eliminate_linear(I, e_max)
        rep = _splitting_report(J, e, q, d)
        if reports:
            prev = reports[-1].splitting_length
            bound = ring.field.characteristic**J.ring.nvars * prev
            if rep.splitting_length > bound:
                raise InternalInconsistency(
                    f"{I} in {ring!r}: lambda_{e} = {rep.splitting_length} exceeds "
                    f"p^n * lambda_{e - 1} = {bound} (lambda_{e - 1} = {prev})"
                )
        reports.append(rep)
    return _assemble_estimate(tuple(reports))


def _assemble_estimate(reports: tuple) -> SignatureEstimate:
    tail = [r.s_e for r in reports if r.e >= 1]
    return SignatureEstimate(
        reports=reports,
        tail_max=max(tail) if tail else None,
        tail_min=min(tail) if tail else None,
        positive=bool(tail) and all(v > 0 for v in tail),
    )


__all__ = [
    "SplittingReport",
    "SignatureEstimate",
    "splitting_ideal",
    "normalized_splitting_number",
    "hypersurface_is_fpure",
    "socle_generator",
    "gorenstein_splitting_number",
    "f_signature_sequence",
    "DEFAULT_BUDGET",
]
