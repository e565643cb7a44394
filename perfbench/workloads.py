"""Workload definitions for the fsplit benchmark: inputs, jobs, seeds, answers.

Three closed-loop workloads (one process, one thread, jobs back to back):

* ``elim_fp``   -- F_p inputs where Buchberger on the block-elimination ring
  inside ``colon_ideal`` does nearly all the work. The twisted cubic has a
  multi-generator K = (I^[q] : I), so it repeats ``intersect`` per generator.
* ``sweep_cli`` -- many small ``fsplit se`` / ``fsplit gorenstein`` calls made
  through ``fsplit.cli.main`` in-process. Fixed per-call cost (ring-spec
  parsing, the CLI, ring set-up, staircase counts) and long high-q grevlex
  reductions carry the time; elimination barely runs.
* ``ratfunc``   -- coefficients in F_p(t...), where the ``fields`` arithmetic
  rivals Buchberger, plus ``probe`` scans that localize variables into the
  coefficient field. The other two workloads are its controls: they never
  touch F_p(t) arithmetic.

The seed permutes the job order and applies a diagonal scaling
x_i -> c_i * x_i with c_i in F_p^x to every input (ideal, sop and socle
hint alike). These are graded automorphisms that fix the origin and every
term support, so each pinned answer holds for every seed.

Every job passes an explicit ``budget``: the default q^n guard (10^6) refuses
jobs that finish in milliseconds (``xy - z^3`` at p = 2, e = 9 has
q^n ~ 1.3e8), and a refusal would count as a failed job.

Nothing here imports fsplit at module level, so a caller can time
``import fsplit`` together with building the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS_FILE = HERE / "answers.json"

#: Explicit q^n budget passed to every job; above the largest q^n in any
#: workload (x*y*z at p = 5, e = 6 has q^n = 5^18 ~ 3.8e12).
BUDGET = 10**15

WORKLOADS = ("elim_fp", "sweep_cli", "ratfunc")

ANSWER_KEYS = ("lambda", "dim", "s_e", "a_e")


@dataclass(frozen=True)
class Input:
    """One ring-spec input: characteristic, variables, generators, hints."""

    name: str
    char: int
    variables: tuple
    ideal: tuple
    transcendentals: tuple = ()
    sop: tuple = ()
    socle: str | None = None


INPUTS = {
    i.name: i
    for i in (
        # elim_fp
        Input("adbc_p2", 2, ("a", "b", "c", "d"), ("a*d - b*c",), sop=("a", "d", "b + c")),
        Input("adbc_p3", 3, ("a", "b", "c", "d"), ("a*d - b*c",), sop=("a", "d", "b + c")),
        Input("tcubic_p3", 3, ("x", "y", "z", "w"), ("x*z - y^2", "y*w - z^2", "x*w - y*z")),
        # sweep_cli
        Input("xyz3_p2", 2, ("x", "y", "z"), ("x*y - z^3",), sop=("x + y", "z")),
        Input("xyz3_p3", 3, ("x", "y", "z"), ("x*y - z^3",), sop=("x + y", "z")),
        Input("xyz3_p5", 5, ("x", "y", "z"), ("x*y - z^3",), sop=("x + y", "z")),
        Input("quad_p3", 3, ("x", "y", "z"), ("x^2 - y*z",), sop=("y", "z"), socle="x"),
        Input("cusp_p2", 2, ("x", "y"), ("y^2 - x^3",)),
        Input("cusp_p5", 5, ("x", "y"), ("y^2 - x^3",), sop=("x",)),
        Input("xyz_p5", 5, ("x", "y", "z"), ("x*y*z",), sop=("x + y", "y + z")),
        Input("xy_p2", 2, ("x", "y"), ("x*y",)),
        Input("zero_p3", 3, ("x", "y", "z"), ()),
        Input("fat_p3", 3, ("x", "y"), ("x^2", "x*y", "y^2")),
        # ratfunc
        Input("adtbc_p2", 2, ("a", "b", "c", "d"), ("a*d - t*b*c",), transcendentals=("t",)),
        Input("quadst_p3", 3, ("x", "y", "z"), ("x^2 - s*y*z + t*z^2",),
              transcendentals=("s", "t")),
        Input("cuspt_p5", 5, ("x", "y"), ("y^2 - t*x^3",), transcendentals=("t",)),
    )
}


@dataclass(frozen=True)
class JobSpec:
    """What a job computes; ``kind`` names the public entry point it goes through.

    kind is one of ``se`` (normalized_splitting_number), ``gorenstein``
    (gorenstein_splitting_number), ``probe`` (semicontinuity_scan),
    ``cli_se`` and ``cli_gorenstein`` (fsplit.cli.main in-process).
    """

    kind: str
    input: str
    e: int
    primes: tuple = ()

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.input}:e{self.e}"

    def answer_keys(self) -> tuple:
        """Keys of answers.json this job is checked against."""
        if self.kind == "probe":
            return tuple(f"{self.id}@{','.join(P)}" for P in self.primes)
        return (self.id,)


def _sweep(kind, name, emax):
    return [JobSpec(kind, name, e) for e in range(emax + 1)]


_ADBC_PRIMES = (("a", "b"), ("a", "c"), ("a", "b", "c"), ("a", "b", "c", "d"))
_QUAD_PRIMES = (("x", "y"), ("x", "z"), ("x", "y", "z"))
PROBE_THRESHOLDS = ("0", "1/2", "1")

# sweep_cli: each ring from e = 0 to the largest e whose call stays under
# about 0.5 s on a 2-core x86 VM; rings whose cost does not grow with e stop
# at e = 6.
JOBS = {
    "elim_fp": (
        # e = 4 (about 5-9 s, two thirds of a pass) is left out: its speed
        # follows the host's drift differently from every other job, so it
        # kept the workload's figures from settling.
        [JobSpec("se", "adbc_p2", e) for e in (1, 2, 3)]
        + [JobSpec("se", "adbc_p3", e) for e in (1, 2)]
        + [JobSpec("se", "tcubic_p3", e) for e in (1, 2)]
        + [JobSpec("gorenstein", "adbc_p2", e) for e in (2, 3)]
        + [JobSpec("gorenstein", "adbc_p3", 2)]
    ),
    "sweep_cli": (
        _sweep("cli_se", "xyz3_p2", 9)
        + _sweep("cli_se", "xyz3_p3", 6)
        + _sweep("cli_se", "xyz3_p5", 4)
        + _sweep("cli_se", "quad_p3", 6)
        + _sweep("cli_se", "cusp_p2", 12)
        + _sweep("cli_se", "cusp_p5", 5)
        + _sweep("cli_se", "xyz_p5", 6)
        + _sweep("cli_se", "xy_p2", 6)
        + _sweep("cli_se", "zero_p3", 6)
        + _sweep("cli_se", "fat_p3", 6)
        + [JobSpec("cli_gorenstein", "quad_p3", e) for e in (2, 3)]
        + [JobSpec("cli_gorenstein", "xyz3_p2", e) for e in (3, 4)]
        + [JobSpec("cli_gorenstein", "cusp_p5", e) for e in (1, 2)]
    ),
    "ratfunc": (
        [JobSpec("se", "adtbc_p2", e) for e in (1, 2, 3)]
        + [JobSpec("se", "quadst_p3", e) for e in (1, 2, 3)]
        + [JobSpec("se", "cuspt_p5", e) for e in (1, 2, 3)]
        + [JobSpec("probe", "adbc_p3", 2, _ADBC_PRIMES)]
        + [JobSpec("probe", "quad_p3", 3, _QUAD_PRIMES)]
    ),
}


# -- seed transform -----------------------------------------------------------


def scalings(seed: int) -> dict:
    """Per-input diagonal scaling vectors c with c_i in F_p^x, drawn from ``seed``."""
    rng = random.Random(f"scale:{seed}")
    return {
        name: tuple(rng.randrange(1, inp.char) for _ in inp.variables)
        for name, inp in sorted(INPUTS.items())
    }


def job_order(workload: str, seed: int) -> list:
    jobs = list(JOBS[workload])
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return jobs


def _spec_text(inp: Input, ideal, sop, socle) -> str:
    lines = [f"char = {inp.char}", f"vars = {', '.join(inp.variables)}"]
    if inp.transcendentals:
        lines.append(f"transcendentals = {', '.join(inp.transcendentals)}")
    lines.append(f"ideal = {', '.join(ideal) or '0'}")
    if sop:
        lines.append(f"sop = {', '.join(sop)}")
    if socle:
        lines.append(f"socle = {socle}")
    return "\n".join(lines) + "\n"


def scale_polynomial(f, c):
    """f(c_1 x_1, ..., c_n x_n) for integer scalars c_i."""
    ring = f.ring
    field = ring.field
    p = field.characteristic
    terms = {}
    for exps, coeff in f.terms:
        unit = 1
        for ci, a in zip(c, exps):
            unit = unit * pow(ci, a, p) % p
        terms[exps] = field.mul(coeff, field.from_int(unit))
    return ring.from_terms(terms)


@dataclass
class Built:
    """An input after parsing and seed scaling."""

    ideal: object  # IdealPresentation
    sop: tuple
    path: str | None  # ring-spec file written for CLI jobs


def build_input(inp: Input, c: tuple, workdir: Path | None):
    from fsplit import IdealPresentation
    from fsplit.ringspec import parse_ring_spec

    spec = parse_ring_spec(_spec_text(inp, inp.ideal, inp.sop, inp.socle))
    gens = tuple(scale_polynomial(g, c) for g in spec.ideal.generators)
    sop = tuple(scale_polynomial(g, c) for g in spec.sop or ())
    socle = None if spec.socle is None else scale_polynomial(spec.socle, c)
    path = None
    if workdir is not None:
        text = _spec_text(
            inp,
            [str(g) for g in gens],
            [str(g) for g in sop],
            None if socle is None else str(socle),
        )
        path = str(workdir / f"{inp.name}.ring")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return Built(IdealPresentation(spec.ring, gens), sop, path)


# -- jobs -----------------------------------------------------------------------


class JobFailed(Exception):
    """A CLI job exited with a nonzero code: refused by the budget, or an error."""


@dataclass
class Job:
    spec: JobSpec
    built: Built

    @property
    def id(self) -> str:
        return self.spec.id

    def run(self) -> dict:
        """Run through the public entry point; return {answer key: answer dict}."""
        import fsplit
        import fsplit.cli

        spec, b = self.spec, self.built
        if spec.kind == "se":
            report = fsplit.normalized_splitting_number(b.ideal, spec.e, BUDGET)
            return {spec.id: report.to_json_obj()}
        if spec.kind == "gorenstein":
            report = fsplit.gorenstein_splitting_number(b.ideal, b.sop, spec.e, None, BUDGET)
            return {spec.id: report.to_json_obj()}
        if spec.kind == "probe":
            primes = [fsplit.CoordinatePrime(P) for P in spec.primes]
            scan = fsplit.semicontinuity_scan(
                b.ideal, primes, spec.e, PROBE_THRESHOLDS, BUDGET
            )
            return {
                f"{spec.id}@{','.join(P.variables)}": rep.to_json_obj()
                for P, rep in scan.rows
            }
        command = {"cli_se": "se", "cli_gorenstein": "gorenstein"}[spec.kind]
        argv = [command, b.path, "--e", str(spec.e), "--budget", str(BUDGET), "--no-timestamp"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fsplit.cli.main(argv)
        if code != 0:
            raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
        return {spec.id: json.loads(out.getvalue())}


def load_answers() -> dict:
    with open(ANSWERS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check(job: Job, result: dict, answers: dict) -> str | None:
    """None when every pinned value matches, else a description of the mismatch."""
    keys = job.spec.answer_keys()
    if sorted(result) != sorted(keys):
        return f"{job.id}: reported {sorted(result)}, expected {sorted(keys)}"
    for key in keys:
        want = answers[key]
        got = result[key]
        for field in ANSWER_KEYS:
            if str(got.get(field)) != str(want[field]):
                return f"{key}: {field} = {got.get(field)}, pinned {want[field]}"
    return None


def build(workload: str, seed: int, workdir: Path | None) -> list:
    """Parse, scale and (for CLI jobs) write every input; return jobs in seed order.

    ``workdir`` receives the ring-spec files of CLI jobs; it must exist when
    the workload has CLI jobs.
    """
    c = scalings(seed)
    jobs = job_order(workload, seed)
    needs_file = {j.input for j in jobs if j.kind.startswith("cli_")}
    built = {
        name: build_input(INPUTS[name], c[name], workdir if name in needs_file else None)
        for name in sorted({j.input for j in jobs})
    }
    return [Job(spec, built[spec.input]) for spec in jobs]

