"""Command-line surface: parse ring-spec files, dispatch, emit JSON reports.

Flags set the exponents, the budget, the primes and chains to probe and the
thresholds, read as a ring file reads such values (ASCII digits, the prime
and chain grammar); the ring file sets all else, the sop and socle included.

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
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CostGuardExceeded,
    FsplitError,
    MissingFlag,
    excerpt,
)
from .localization import semicontinuity_scan
from .ringspec import _DIGITS, RingSpec, parse_chain, parse_prime, parse_ring_spec
from .splitting import (
    f_signature_sequence,
    gorenstein_splitting_number,
    normalized_splitting_number,
)

SCHEMA = "fsplit/1"

# a --thresholds entry: ASCII digits, as a ring file reads them, and no exponent
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


class _UsageError(Exception):
    """A flag value that argparse does not check."""


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
        p.add_argument("--budget", default=DEFAULT_BUDGET,
                       help="standard-monomial budget (default: 10^6)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-reproducible output")

    p_se = sub.add_parser("se", help="normalized splitting numbers at the origin")
    common(p_se)
    group = p_se.add_mutually_exclusive_group(required=True)
    group.add_argument("--e", help="single Frobenius exponent")
    group.add_argument("--emax", help="report e = 0..emax with tail extrema")

    p_probe = sub.add_parser("probe", help="localization and semicontinuity scan")
    common(p_probe)
    p_probe.add_argument("--primes", required=True,
                         help="pipe-separated primes, each as in a file's 'prime', e.g. 'x|x,z|0'")
    p_probe.add_argument("--e", required=True)
    p_probe.add_argument("--thresholds", required=True,
                         help="comma-separated rationals, e.g. '0,1/2,3/4,1'")
    p_probe.add_argument("--chains", default=None,
                         help="pipe-separated chains, each as in a file's 'chain', e.g. "
                              "'C1|x<x,y'; runs the monotonicity check, which needs "
                              "equidimensional = true")

    p_gor = sub.add_parser("gorenstein", help="splitting number via the file's sop and socle")
    common(p_gor)
    p_gor.add_argument("--e", required=True)

    return parser


def _check_flags(args) -> None:
    """Read --e, --emax and --budget as a ring file reads integers, each at least its floor."""
    for name, least in (("e", 0), ("emax", 1), ("budget", 1)):
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            if not set(str(text).removeprefix("-")) <= _DIGITS:
                raise ValueError
            value = int(text)  # also refuses "", "-" and more digits than int() reads
        except ValueError:
            raise _UsageError(
                f"--{name} must be an integer in ASCII digits, got {excerpt(text)!r}"
            ) from None
        if value < least:
            floor = "nonnegative" if least == 0 else "positive"
            raise _UsageError(f"--{name} must be {floor}, got {value}")
        setattr(args, name, value)


def _ring_summary(spec: RingSpec) -> dict:
    return {
        "characteristic": spec.ring.field.characteristic,
        "variables": list(spec.ring.variables),
        "transcendentals": list(spec.ring.field.transcendentals),
        "ideal": [str(g) for g in spec.ideal.generators],
    }


def _rational(text: str) -> Fraction:
    """[-]digits[/digits] or [-]digits.digits; int() refuses more digits than it prints."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError
    whole, den, decimals = match.groups(default="")
    return Fraction(int(whole + decimals), int(den or 1) * 10 ** len(decimals))


@contextlib.contextmanager
def _flag(name: str):
    """Parse a flag's value with ``ringspec``; a value it refuses is a usage error."""
    try:
        yield
    except FsplitError as exc:
        raise _UsageError(f"{name}: {exc}") from None


def _cmd_se(args, spec: RingSpec) -> dict:
    if args.e is not None:
        return normalized_splitting_number(spec.ideal, args.e, args.budget).to_json_obj()
    return f_signature_sequence(spec.ideal, args.emax, args.budget).to_json_obj()


def _cmd_probe(args, spec: RingSpec) -> dict:
    with _flag("--primes"):
        primes = [parse_prime(spec.ring, tok, spec.primes) for tok in args.primes.split("|")]
    try:
        thresholds = [_rational(tok) for tok in args.thresholds.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(
            f"--thresholds must be rationals, got {excerpt(args.thresholds)!r}"
        ) from None
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
        spec.ideal, primes, args.e, thresholds, args.budget, chains=chains
    ).to_json_obj()


def _cmd_gorenstein(args, spec: RingSpec) -> dict:
    sop = spec.sop or ()
    report = gorenstein_splitting_number(spec.ideal, sop, args.e, spec.socle, args.budget)
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
        _check_flags(args)
        with open(args.ringfile, encoding="utf-8") as handle:
            spec = parse_ring_spec(handle.read())
        payload = {"schema": SCHEMA, "command": args.command, "ring": _ring_summary(spec)}
        payload.update(_DISPATCH[args.command](args, spec))
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
