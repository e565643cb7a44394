"""Command-line surface: parse ring-spec files, dispatch, emit JSON reports.

Exit codes: 0 success, 1 usage, 2 mathematical precondition failure,
3 budget exceeded. All reports carry "schema": "fsplit/1"; a timestamp is
included unless --no-timestamp is given, so identical inputs and flags
produce byte-identical output with the flag set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .errors import DEFAULT_BUDGET, BudgetExceeded, CostGuardExceeded, FsplitError, MissingFlag
from .localization import (
    CoordinatePrime,
    PrimeChain,
    check_localization_monotonicity,
    semicontinuity_scan,
)
from .oracle import oracle_dual_splitting_length, oracle_length_mod_bracket
from .ringspec import RingSpec, parse_polynomial, parse_ring_spec
from .splitting import (
    f_signature_sequence,
    gorenstein_splitting_number,
    normalized_splitting_number,
)

SCHEMA = "fsplit/1"


class _UsageError(Exception):
    """A flag or environment value that argparse does not check."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="fsplit", description="Frobenius splitting number computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("ringfile", help="path to a ring-spec file")
        p.add_argument("--budget", type=int, default=None,
                       help="standard-monomial budget (default: FSPLIT_BUDGET or 10^6)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-reproducible output")

    p_se = sub.add_parser("se", help="normalized splitting numbers at the origin")
    common(p_se)
    group = p_se.add_mutually_exclusive_group(required=True)
    group.add_argument("--e", type=int, help="single Frobenius exponent")
    group.add_argument("--emax", type=int, help="report e = 0..emax with tail extrema")

    p_probe = sub.add_parser("probe", help="localization and semicontinuity scan")
    common(p_probe)
    p_probe.add_argument("--primes", required=True,
                         help="pipe-separated coordinate primes, e.g. 'x|x,z|x,y,z' (0 = zero prime)")
    p_probe.add_argument("--e", type=int, required=True)
    p_probe.add_argument("--thresholds", required=True,
                         help="comma-separated rationals, e.g. '0,1/2,3/4,1'")
    p_probe.add_argument("--chains", default=None,
                         help="pipe-separated chains (names from the file or 'x<x,y<x,y,z'); "
                              "runs the monotonicity check, which needs equidimensional = true")

    p_gor = sub.add_parser("gorenstein", help="splitting number via a system of parameters")
    common(p_gor)
    p_gor.add_argument("--e", type=int, required=True)
    p_gor.add_argument("--sop", default=None,
                       help="comma-separated system of parameters (default: file sop)")
    p_gor.add_argument("--socle", default=None,
                       help="socle generator lift (default: file socle hint, else computed)")

    p_oracle = sub.add_parser("oracle", help=argparse.SUPPRESS)
    common(p_oracle)
    p_oracle.add_argument("--e", type=int, required=True)
    p_oracle.add_argument("--mode", choices=("bracket-length", "dual-length"),
                          default="dual-length")

    return parser


def _budget(args) -> int:
    """The budget from --budget, else FSPLIT_BUDGET, else the default; at least 1."""
    budget, source = args.budget, "--budget"
    if budget is None:
        env = os.environ.get("FSPLIT_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        source = "FSPLIT_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise _UsageError(f"FSPLIT_BUDGET must be an integer, got {env!r}") from None
    if budget < 1:
        raise _UsageError(f"{source} must be positive, got {budget}")
    return budget


def _check_exponents(args) -> None:
    e, emax = getattr(args, "e", None), getattr(args, "emax", None)
    if e is not None and e < 0:
        raise _UsageError(f"--e must be nonnegative, got {e}")
    if emax is not None and emax < 1:
        raise _UsageError(f"--emax must be positive, got {emax}")


def _load(args) -> RingSpec:
    with open(args.ringfile, encoding="utf-8") as handle:
        return parse_ring_spec(handle.read())


def _emit(args, payload: dict) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _ring_summary(spec: RingSpec) -> dict:
    return {
        "characteristic": spec.ring.field.characteristic,
        "variables": list(spec.ring.variables),
        "transcendentals": list(spec.ring.field.transcendentals),
        "ideal": [str(g) for g in spec.ideal.generators],
    }


def _parse_prime_token(spec: RingSpec, token: str) -> CoordinatePrime:
    token = token.strip()
    if token in spec.primes:
        return spec.primes[token]
    if token in ("0", ""):
        return CoordinatePrime(())
    names = tuple(v.strip() for v in token.split(","))
    return CoordinatePrime(names)


def _parse_chain_token(spec: RingSpec, token: str) -> PrimeChain:
    token = token.strip()
    if token in spec.chains:
        return spec.chains[token]
    return PrimeChain(tuple(_parse_prime_token(spec, part) for part in token.split("<")))


def _cmd_se(args) -> None:
    spec = _load(args)
    budget = _budget(args)
    if args.e is not None:
        report = normalized_splitting_number(spec.ideal, args.e, budget)
        payload = {"schema": SCHEMA, "command": "se", "ring": _ring_summary(spec)}
        payload.update(report.to_json_obj())
    else:
        estimate = f_signature_sequence(spec.ideal, args.emax, budget)
        payload = {"schema": SCHEMA, "command": "se", "ring": _ring_summary(spec)}
        payload.update(estimate.to_json_obj())
    _emit(args, payload)


def _cmd_probe(args) -> None:
    spec = _load(args)
    budget = _budget(args)
    primes = [_parse_prime_token(spec, tok) for tok in args.primes.split("|")]
    try:
        thresholds = [Fraction(tok.strip()) for tok in args.thresholds.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--thresholds must be rationals, got {args.thresholds!r}") from None
    report = semicontinuity_scan(spec.ideal, primes, args.e, thresholds, budget)
    payload = {"schema": SCHEMA, "command": "probe", "ring": _ring_summary(spec)}
    payload.update(report.to_json_obj())
    if args.chains is not None:
        if not spec.equidimensional:
            raise MissingFlag(
                "monotonicity checks need 'equidimensional = true' in the ring file"
            )
        results = []
        for token in args.chains.split("|"):
            chain = _parse_chain_token(spec, token)
            outcome = check_localization_monotonicity(
                spec.ideal, chain, args.e, equidimensional=True, budget=budget
            )
            results.append(outcome.to_json_obj())
        payload["monotonicity"] = results
        payload["passed"] = payload["passed"] and all(r["monotone"] for r in results)
    _emit(args, payload)


def _cmd_gorenstein(args) -> None:
    spec = _load(args)
    budget = _budget(args)
    if args.sop is not None:
        sop = tuple(
            parse_polynomial(spec.ring, chunk)
            for chunk in args.sop.split(",")
            if chunk.strip()
        )
    elif spec.sop is not None:
        sop = spec.sop
    else:
        sop = ()
    socle = None
    if args.socle is not None:
        socle = parse_polynomial(spec.ring, args.socle)
    elif spec.socle is not None:
        socle = spec.socle
    report = gorenstein_splitting_number(spec.ideal, sop, args.e, socle, budget)
    payload = {
        "schema": SCHEMA,
        "command": "gorenstein",
        "ring": _ring_summary(spec),
        "sop": [str(f) for f in sop],
    }
    payload.update(report.to_json_obj())
    _emit(args, payload)


def _cmd_oracle(args) -> None:
    spec = _load(args)
    budget = _budget(args)
    if args.mode == "bracket-length":
        value = oracle_length_mod_bracket(spec.ideal, args.e, budget)
    else:
        value = oracle_dual_splitting_length(spec.ideal, args.e, budget)
    _emit(args, {
        "schema": SCHEMA,
        "command": "oracle",
        "mode": args.mode,
        "e": args.e,
        "value": str(value),
    })


_DISPATCH = {
    "se": _cmd_se,
    "probe": _cmd_probe,
    "gorenstein": _cmd_gorenstein,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_exponents(args)
        _DISPATCH[args.command](args)
    except (BudgetExceeded, CostGuardExceeded) as exc:
        sys.stderr.write(f"fsplit: budget: {exc}\n")
        return 3
    except FsplitError as exc:
        sys.stderr.write(f"fsplit: error: {exc}\n")
        return 2
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"fsplit: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
