"""Byte-identity of the engine's reduced bases on a fixed, seeded corpus.

A reduced Groebner basis is unique, and the engine's working form (order
keys, packed monomials, canonical coefficients) is deterministic. So a
change to how Buchberger, the interreduction, ``intersect`` or
``colon_ideal`` get their answer must leave every ``ReducedGB._terms``
byte-identical. This test hashes ``repr`` of the raw ``_terms`` of every
result in the corpus and compares it with a digest recorded before the
engine reduced tails lazily. If it fails, some basis changed: find it with
``corpus()`` before touching the digest.
"""

from __future__ import annotations

import hashlib
import random

import fsplit.groebner
import fsplit.ideals
from fsplit import (
    GREVLEX,
    LEX,
    MonomialOrder,
    PrimeField,
    RationalFunctionField,
    Ring,
    buchberger,
    colon_ideal,
    frobenius_power,
    intersect,
)
from fsplit.groebner import interreduce

ELIM = MonomialOrder.elimination(1)
NAMES = ("w", "x", "y", "z")

DIGEST = "f37785c6662a01db883393f7e9b2d01d6db1ff374a7751987e4c9c3d5ac5dd35"

# Calls of groebner._nf (inputs, S-pairs, interreduction and colon_ideal's
# generator reductions) over the corpus, recorded before the pair update read
# its keys from packed lcms. Unique reduced bases cannot show a changed
# criterion or pair order; the number of reductions can. 3728 until
# colon_ideal returned I's basis for a divisor with a nonzero constant
# normal form: three corpus colons (J = (y^2*z + 1, y^3), (y^3 + y^2 + 2,
# y^3*z) and (2, ...) over F_3(t)) skip an intersection each. 3686 until
# colon_ideal carried its running colon into the next elimination: a colon
# by r generators runs r eliminations instead of 2r - 1.
NF_CALLS = 3262


def _coefficient(field, rng):
    c = field.from_int(rng.randrange(1, field.characteristic))
    if field.transcendentals:
        t = field.transcendental("t")
        c = field.mul(c, field.pow(t, rng.randrange(3)))
        c = field.add(c, field.from_int(rng.randrange(2)))
    return c


def _ideal(rng, ring, ngens, max_exp):
    gens = []
    for _ in range(ngens):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
            terms[exps] = _coefficient(ring.field, rng)
        g = ring.from_terms(terms)
        if not g.is_zero():
            gens.append(g)
    return ring.ideal(*gens)


def corpus():
    """(label, ReducedGB) for every case, in a fixed order."""
    fields = [PrimeField(2), PrimeField(3), PrimeField(5), RationalFunctionField(3, ("t",))]
    out = []
    for field in fields:
        rng = random.Random(1000 + field.characteristic + 7 * len(field.transcendentals))
        # F_3(t) arithmetic is slow, so its ideals are smaller
        small = bool(field.transcendentals)
        for n in (2, 3, 4):
            ring = Ring(field, NAMES[-n:])
            max_exp = 3 if n == 2 and not small else 2
            for k in range(4):
                I = _ideal(rng, ring, 3 if n < 4 and not small else 2, max_exp)
                J = _ideal(rng, ring, 2, max_exp)
                tag = f"{field!r}/n={n}/{k}"
                gb = buchberger(I, GREVLEX)
                out.append((f"{tag}/grevlex", gb))
                if n < 4:
                    out.append((f"{tag}/lex", buchberger(I, LEX)))
                out.append((f"{tag}/elim", buchberger(I, ELIM)))
                padded = [g * h for g, h in zip(gb.basis, J.generators)] + list(gb.basis)
                rng.shuffle(padded)
                out.append((f"{tag}/interreduce", interreduce(ring, padded, GREVLEX)))
                out.append((f"{tag}/intersect", intersect(I, J)))
                if n < 4 and J.nonzero_generators():
                    out.append((f"{tag}/colon", colon_ideal(I, J)))
    # the colons behind s_e: K = (I^[q] : I), then the primal n^[q] : K
    for p, e in ((2, 2), (3, 2)):
        ring = Ring(PrimeField(p), NAMES)
        w, x, y, z = ring.gens()
        I = ring.ideal(w * y - x**2, x * z - y**2, w * z - x * y)
        K = colon_ideal(frobenius_power(I, e), I)
        nq = frobenius_power(ring.variable_ideal(), e)
        out.append((f"F_{p}/twisted-cubic/e={e}/K", K))
        out.append((f"F_{p}/twisted-cubic/e={e}/primal", colon_ideal(nq, K)))
    return out


def digest(results) -> str:
    h = hashlib.sha256()
    for label, gb in results:
        h.update(f"{label}:{gb._terms!r}\n".encode())
    return h.hexdigest()


def test_engine_bases_are_byte_identical_to_the_recorded_digest():
    assert digest(corpus()) == DIGEST


def test_engine_reduces_the_recorded_number_of_times(monkeypatch):
    calls = 0
    nf = fsplit.groebner._nf

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return nf(*args, **kwargs)

    monkeypatch.setattr(fsplit.groebner, "_nf", counted)
    monkeypatch.setattr(fsplit.ideals, "_nf", counted)
    corpus()
    assert calls == NF_CALLS
