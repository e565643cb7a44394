"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Expected values are hand-derived or oracle-pinned (see corpus.py); stated
runtime ceilings are asserted alongside the exact values.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from fsplit import (
    CoordinatePrime,
    PrimeChain,
    PrimeField,
    Ring,
    buchberger,
    gorenstein_splitting_number,
    hypersurface_is_fpure,
    normal_form,
    normalized_splitting_number,
    s_e_at_prime,
    semicontinuity_scan,
    splitting_ideal,
    validate_reduced_gb,
)
from fsplit.artinian import length
from fsplit.cli import main as cli_main
from fsplit.oracle import oracle_dual_splitting_length, oracle_length_mod_bracket
from fsplit.ideals import frobenius_power, ideal_sum
from corpus import BY_NAME, CORPUS, matlis_pairs, sop_polynomials


def _verdict(number: int, name: str, passed: bool) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_01_regular_anchor():
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            ring = Ring(PrimeField(p), ("x", "y", "z")[:n])
            zero = ring.ideal()
            for e in range(4):
                budget = 4 * 10**6 if (p**e) ** n > 10**6 else 10**6
                start = time.monotonic()
                rep = normalized_splitting_number(zero, e, budget)
                elapsed = time.monotonic() - start
                ok = ok and rep.s_e == 1 and elapsed < 1.0
    _verdict(1, "regular-anchor", ok)


def test_criterion_02_node_family():
    ok = True
    for p in (2, 3, 5):
        ring = Ring(PrimeField(p), ("x", "y"))
        node = ring.ideal(ring.var("x") * ring.var("y"))
        for e in (1, 2, 3):
            start = time.monotonic()
            rep = normalized_splitting_number(node, e)
            elapsed = time.monotonic() - start
            ok = ok and rep.s_e == Fraction(1, p**e) and elapsed < 5.0
    for p in (2, 3, 5):
        entry = BY_NAME[f"node3_p{p}"]
        expected = {
            ("x",): Fraction(1),
            ("x", "z"): Fraction(1),
            ("x", "y"): Fraction(1, p),
            ("x", "y", "z"): Fraction(1, p),
        }
        for names, value in expected.items():
            start = time.monotonic()
            rep = s_e_at_prime(entry.ideal, CoordinatePrime(names), 1)
            elapsed = time.monotonic() - start
            ok = ok and rep.s_e == value and elapsed < 5.0
    _verdict(2, "node-family", ok)


def test_criterion_03_cusp_fpurity():
    entry = BY_NAME["cusp_p5"]
    f = entry.ideal.generators[0]
    ok = True
    start = time.monotonic()
    for e in (1, 2):
        rep = normalized_splitting_number(entry.ideal, e)
        fedder_pure = hypersurface_is_fpure(f, e)
        ok = ok and rep.s_e == 0 and fedder_pure is False
    ok = ok and (time.monotonic() - start) < 5.0
    _verdict(3, "cusp-f-purity", ok)


def test_criterion_04_matlis_duality_identity():
    pairs = matlis_pairs()
    assert len(pairs) >= 12
    ok = True
    for entry, e in pairs:
        primal = length(splitting_ideal(entry.ideal, e))
        # raises InternalInconsistency unless its primal and dual lengths agree
        dual = normalized_splitting_number(entry.ideal, e).splitting_length
        ok = ok and primal == dual
    _verdict(4, "matlis-duality", ok)


def test_criterion_05_gorenstein_route_agreement():
    cases = 0
    ok = True
    for entry in CORPUS:
        if not (entry.hypersurface and entry.gorenstein):
            continue
        sop = sop_polynomials(entry)
        for e in (1, 2):
            a = gorenstein_splitting_number(entry.ideal, sop, e)
            b = normalized_splitting_number(entry.ideal, e)
            ok = ok and (a.splitting_length, a.s_e) == (b.splitting_length, b.s_e)
            cases += 1
    ok = ok and cases >= 6
    _verdict(5, "gorenstein-route", ok)


def test_criterion_06_oracle_equivalence():
    ok = True
    checked = 0
    for entry in CORPUS:
        if not entry.homogeneous or entry.ring.nvars > 3:
            continue
        p = entry.ring.field.characteristic
        for e in (1, 2):
            q = p**e
            if q**entry.ring.nvars > 10**6 or (q**entry.ring.nvars) ** 2 > 4 * 10**6:
                continue
            gb_dual = normalized_splitting_number(entry.ideal, e).splitting_length
            or_dual = oracle_dual_splitting_length(entry.ideal, e, budget=4 * 10**6)
            nq = frobenius_power(entry.ring.variable_ideal(), e)
            gb_len = length(buchberger(ideal_sum(entry.ideal, nq)))
            or_len = oracle_length_mod_bracket(
                entry.ideal, e, budget=4 * 10**6
            )
            ok = ok and gb_dual == or_dual and gb_len == or_len
            checked += 1
    ok = ok and checked >= 10
    _verdict(6, "oracle-equivalence", ok)


def test_criterion_07_semicontinuity_scan():
    ok = True
    start = time.monotonic()
    for name in ("node3_p2", "zero_p3_n2"):
        entry = BY_NAME[name]
        p = entry.ring.field.characteristic
        for e in (1, 2):
            thresholds = [Fraction(0), Fraction(1, p**e), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
            report = semicontinuity_scan(entry.ideal, entry.primes, e, thresholds)
            ok = ok and report.passed
    ok = ok and (time.monotonic() - start) < 10.0
    _verdict(7, "semicontinuity-scan", ok)


def test_criterion_08_localization_monotonicity():
    ok = True
    checked = 0
    for entry in CORPUS:
        if not entry.chains or not entry.equidimensional:
            continue
        chains = [
            PrimeChain(tuple(CoordinatePrime(tuple(s)) for s in subsets))
            for subsets in entry.chains
        ]
        report = semicontinuity_scan(entry.ideal, [], 1, [], chains=chains)
        ok = ok and all(monotone for _, _, monotone in report.chains)
        checked += len(report.chains)
    ok = ok and checked >= 5
    _verdict(8, "localization-monotonicity", ok)


def test_criterion_09_kunz_constancy():
    ok = True
    checked = 0
    for entry in CORPUS:
        if not entry.primes or not (entry.connected and entry.equidimensional):
            continue
        # dim + alpha does not depend on e, so e = 0 reads it cheapest
        ok = ok and semicontinuity_scan(entry.ideal, entry.primes, 0, []).kunz_constant
        checked += 1
    ok = ok and checked >= 5
    _verdict(9, "kunz-constancy", ok)


@pytest.fixture
def fixture_jsons(tmp_path):
    files = {
        "node2.ring": "char = 2\nvars = x, y\nideal = x*y\nsop = x + y\n",
        "node3.ring": (
            "char = 2\nvars = x, y, z\nideal = x*y\n"
            "equidimensional = true\n"
            "prime Px = x\nprime Pall = x, y, z\nchain C = Px < Pall\n"
        ),
        "cusp5.ring": "char = 5\nvars = x, y\nideal = y^2 - x^3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def render(capsys):
        jobs = [
            ["se", str(tmp_path / "node2.ring"), "--e", "1", "--no-timestamp"],
            ["se", str(tmp_path / "cusp5.ring"), "--emax", "2", "--no-timestamp"],
            ["probe", str(tmp_path / "node3.ring"), "--primes", "Px|Pall", "--e", "1",
             "--thresholds", "0,1/2,1", "--chains", "C", "--no-timestamp"],
            ["gorenstein", str(tmp_path / "node2.ring"), "--e", "1", "--no-timestamp"],
        ]
        outputs = []
        for argv in jobs:
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    return render


def test_criterion_10_engine_health(fixture_jsons, capsys):
    ok = True
    # S-polynomial certificate on every reduced basis the corpus produces
    for entry in CORPUS:
        gb = buchberger(entry.ideal)
        validate_reduced_gb(gb)
        validate_reduced_gb(splitting_ideal(entry.ideal, 1))
    # normal-form idempotence on 1000 randomized inputs
    rng = random.Random(2024)
    ring = Ring(PrimeField(5), ("x", "y"))
    bases = [
        buchberger(ring.ideal(*gens))
        for gens in (
            (ring.var("x") * ring.var("y"),),
            (ring.var("x") ** 2 - ring.var("y"),),
            (ring.var("x") ** 3, ring.var("y") ** 2),
            (ring.var("x") + ring.var("y"), ring.var("x") * ring.var("y") ** 2),
        )
    ]
    for _ in range(1000):
        terms = {
            tuple(rng.randrange(6) for _ in range(2)): rng.randrange(1, 5)
            for _ in range(rng.randrange(5))
        }
        f = ring.from_terms(terms)
        gb = bases[rng.randrange(len(bases))]
        nf = normal_form(f, gb)
        ok = ok and normal_form(nf, gb) == nf
    # byte-identical JSON fixtures across two full renders
    first = fixture_jsons(capsys)
    second = fixture_jsons(capsys)
    ok = ok and first == second
    ok = ok and all(json.loads(a) == json.loads(b) for a, b in zip(first, second))
    _verdict(10, "engine-health", ok)
