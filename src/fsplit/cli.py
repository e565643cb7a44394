"""Command-line surface: parse ring-spec files, dispatch, emit JSON reports.

Exit codes: 0 success, 1 usage (including a flag value that the ring-file
grammar refuses), 2 a bad ring file or a mathematical precondition failure,
3 budget exceeded. All reports carry "schema": "fsplit/1"; a timestamp is
included unless --no-timestamp is given, so identical inputs and flags
produce byte-identical output with the flag set.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .errors import DEFAULT_BUDGET, BudgetExceeded, CostGuardExceeded, FsplitError, MissingFlag
from .localization import semicontinuity_scan
from .ringspec import (
    RingSpec,
    parse_chain,
    parse_polynomial,
    parse_polynomials,
    parse_prime,
    parse_ring_spec,
)
from .splitting import (
    f_signature_sequence,
    gorenstein_splitting_number,
    normalized_splitting_number,
)

SCHEMA = "fsplit/1"


class _UsageError(Exception):
    """A flag or environment value that argparse does not check."""


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with one stderr line, without the usage block."""

    def error(self, message):
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
                         help="pipe-separated primes, each as in a file's 'prime', e.g. 'x|x,z|0'")
    p_probe.add_argument("--e", type=int, required=True)
    p_probe.add_argument("--thresholds", required=True,
                         help="comma-separated rationals, e.g. '0,1/2,3/4,1'")
    p_probe.add_argument("--chains", default=None,
                         help="pipe-separated chains, each as in a file's 'chain', e.g. "
                              "'C1|x<x,y'; runs the monotonicity check, which needs "
                              "equidimensional = true")

    p_gor = sub.add_parser("gorenstein", help="splitting number via a system of parameters")
    common(p_gor)
    p_gor.add_argument("--e", type=int, required=True)
    p_gor.add_argument("--sop", default=None,
                       help="system of parameters as a file's 'sop' takes it (default: file sop)")
    p_gor.add_argument("--socle", default=None,
                       help="socle generator lift (default: file socle hint, else computed)")

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


def _ring_summary(spec: RingSpec) -> dict:
    return {
        "characteristic": spec.ring.field.characteristic,
        "variables": list(spec.ring.variables),
        "transcendentals": list(spec.ring.field.transcendentals),
        "ideal": [str(g) for g in spec.ideal.generators],
    }


@contextlib.contextmanager
def _flag(name: str):
    """Parse a flag's value with ``ringspec``; a value it refuses is a usage error."""
    try:
        yield
    except FsplitError as exc:
        raise _UsageError(f"{name}: {exc}") from None


def _cmd_se(args, spec: RingSpec, budget: int) -> dict:
    if args.e is not None:
        return normalized_splitting_number(spec.ideal, args.e, budget).to_json_obj()
    return f_signature_sequence(spec.ideal, args.emax, budget).to_json_obj()


def _cmd_probe(args, spec: RingSpec, budget: int) -> dict:
    with _flag("--primes"):
        primes = [parse_prime(spec.ring, tok, spec.primes) for tok in args.primes.split("|")]
    try:
        thresholds = [Fraction(tok.strip()) for tok in args.thresholds.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--thresholds must be rationals, got {args.thresholds!r}") from None
    chains = ()
    if args.chains is not None:
        with _flag("--chains"):
            chains = [
                parse_chain(spec.ring, tok, spec.primes, spec.chains)
                for tok in args.chains.split("|")
            ]
        if not spec.equidimensional:
            raise MissingFlag(
                "monotonicity checks need 'equidimensional = true' in the ring file"
            )
    return semicontinuity_scan(
        spec.ideal, primes, args.e, thresholds, budget, chains=chains
    ).to_json_obj()


def _cmd_gorenstein(args, spec: RingSpec, budget: int) -> dict:
    sop, socle = spec.sop or (), spec.socle
    if args.sop is not None:
        with _flag("--sop"):
            sop = parse_polynomials(spec.ring, args.sop)
    if args.socle is not None:
        with _flag("--socle"):
            socle = parse_polynomial(spec.ring, args.socle)
    report = gorenstein_splitting_number(spec.ideal, sop, args.e, socle, budget)
    return {"sop": [str(f) for f in sop], **report.to_json_obj()}


_DISPATCH = {
    "se": _cmd_se,
    "probe": _cmd_probe,
    "gorenstein": _cmd_gorenstein,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_exponents(args)
        spec = _load(args)
        budget = _budget(args)
        payload = {"schema": SCHEMA, "command": args.command, "ring": _ring_summary(spec)}
        payload.update(_DISPATCH[args.command](args, spec, budget))
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
