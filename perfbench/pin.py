"""Recompute and cross-check the pinned answers in answers.json.

    PYTHONPATH=src python3 perfbench/pin.py [--write]

Every job runs once on the unscaled input. Each answer (lambda, dim, s_e,
a_e) is recorded with the independent checks it passed, in this order:

* ``corpus``      -- a hand value from tests/corpus.py: node x*y has
  lambda = 1; the quadric x^2 - yz in char 3 has lambda = (q^2+1)/2; the
  zero ideal has lambda = q^n; the fat point and the cusps in char 2 and 5
  have lambda = 0 for e >= 1; every ring has lambda = 1 at e = 0;
* ``oracle``      -- oracle_dual_splitting_length agrees (homogeneous F_p
  inputs with q^n <= 10^4, inside the oracle's own budget);
* ``gorenstein``  -- the Gorenstein route with the input's sop agrees;
* ``primal_route``-- for a Gorenstein-route job, the primal route agrees;
* ``field_change``-- an F_p(t) input equals its F_p twin after a change of
  variables over the field (b -> b/t; y -> s*y - t*z; x -> t*x, y -> t^2*y),
  so lambda and dim match the twin's pinned values;
* ``regular``     -- a probe row whose localized ideal is one polynomial with
  a linear term, hence regular, with s_e = 1 (Kunz);
* ``same_input``  -- a probe row at the prime of all variables, which is the
  unlocalized input, equal to that input's pinned value.

Every fsplit call also asserts that its primal and dual lengths agree. A
disagreement in any check aborts without writing. The two Open-item-1
inputs, (x^2 - x, x*y - y) and (x - 1) over F_3, are deliberately absent:
fsplit's answers for them are known to be wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import workloads

HAND = {
    "xy_p2": lambda q, e: 1,
    "quad_p3": lambda q, e: (q * q + 1) // 2,
    "zero_p3": lambda q, e: q**3,
    "fat_p3": lambda q, e: 1 if e == 0 else 0,
    "cusp_p2": lambda q, e: 1 if e == 0 else 0,
    "cusp_p5": lambda q, e: 1 if e == 0 else 0,
}
TWINS = {"adtbc_p2": "adbc_p2", "quadst_p3": "quad_p3", "cuspt_p5": "cusp_p5"}
ORACLE_BOX = 10**4


def _pinned_value(pinned, name, e):
    """The pinned answer of the library or CLI ``se`` job on input ``name`` at e."""
    return pinned.get(f"se:{name}:e{e}") or pinned[f"cli_se:{name}:e{e}"]


def _checks(fsplit, job, key, ans, pinned) -> list:
    spec = job.spec
    inp = workloads.INPUTS[spec.input]
    q = inp.char**spec.e
    lam = int(ans["lambda"])
    passed = []

    def agree(name, value, want):
        if value != want:
            raise SystemExit(f"{key}: {name} gives {value}, fsplit gives {want}")
        passed.append(name)

    prime = key.split("@")[1].split(",") if "@" in key else None
    unlocalized = prime is None or sorted(prime) == sorted(inp.variables)
    if unlocalized and (spec.e == 0 or spec.input in HAND):
        agree("corpus", 1 if spec.e == 0 else HAND[spec.input](q, spec.e), lam)
    if unlocalized and not inp.transcendentals and q ** len(inp.variables) <= ORACLE_BOX:
        try:
            value = fsplit.oracle_dual_splitting_length(job.built.ideal, spec.e)
        except (fsplit.NotHomogeneous, fsplit.BudgetExceeded):
            pass
        else:
            agree("oracle", value, lam)
    if spec.kind.endswith("gorenstein"):
        report = fsplit.normalized_splitting_number(job.built.ideal, spec.e, workloads.BUDGET)
        agree("primal_route", report.splitting_length, lam)
    elif unlocalized and job.built.sop:
        report = fsplit.gorenstein_splitting_number(
            job.built.ideal, job.built.sop, spec.e, None, workloads.BUDGET
        )
        agree("gorenstein", report.splitting_length, lam)
    if spec.input in TWINS:
        twin = _pinned_value(pinned, TWINS[spec.input], spec.e)
        agree("field_change", (int(twin["lambda"]), twin["dim"]), (lam, ans["dim"]))
    if prime is not None and not unlocalized:
        P = fsplit.CoordinatePrime(tuple(prime))
        _, local = fsplit.localize_at_coordinate_prime(job.built.ideal, P)
        gens = local.nonzero_generators()
        if len(gens) == 1 and any(sum(exps) == 1 for exps, _ in gens[0].terms):
            agree("regular", Fraction(ans["s_e"]), Fraction(1))
    if prime is not None and unlocalized:
        same = _pinned_value(pinned, spec.input, spec.e)
        agree("same_input", (int(same["lambda"]), same["dim"]), (lam, ans["dim"]))
    return passed or ["primal=dual"]


def pin() -> dict:
    import fsplit

    pinned: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        specs = {spec.id: spec for name in workloads.WORKLOADS for spec in workloads.JOBS[name]}
        # F_p jobs first so field changes and probes can cite their twins
        ordered = sorted(specs.values(), key=lambda s: (s.kind == "probe",
                                                        bool(workloads.INPUTS[s.input].transcendentals)))
        for spec in ordered:
            inp = workloads.INPUTS[spec.input]
            built = workloads.build_input(inp, (1,) * len(inp.variables), Path(tmp))
            job = workloads.Job(spec, built)
            for key, ans in sorted(job.run().items()):
                if key in pinned:
                    continue
                entry = {k: ans[k] for k in workloads.ANSWER_KEYS}
                pinned[key] = entry
                entry["source"] = "+".join(_checks(fsplit, job, key, entry, pinned))
                print(f"{key:40s} lambda={entry['lambda']:>8s} s_e={entry['s_e']:>14s} "
                      f"[{entry['source']}]", file=sys.stderr, flush=True)
    return dict(sorted(pinned.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recompute and cross-check pinned answers")
    parser.add_argument("--write", action="store_true", help="rewrite answers.json")
    args = parser.parse_args(argv)
    pinned = pin()
    if args.write:
        with open(workloads.ANSWERS_FILE, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, indent=1)
            handle.write("\n")
        return 0
    current = workloads.load_answers()
    if current != pinned:
        changed = sorted(k for k in set(current) | set(pinned) if current.get(k) != pinned.get(k))
        print(f"answers.json differs at {changed}", file=sys.stderr)
        return 1
    print("answers.json agrees with a fresh computation", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
