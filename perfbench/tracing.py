"""Benchmark-side tracing: wrap the calls into each fsplit module, record spans.

Nothing under ``src/`` is changed. ``Tracer.install`` rebinds every traced
name in every ``fsplit`` module that holds it (``buchberger``, for instance,
is bound in ``fsplit.groebner``, ``fsplit.ideals``, ``fsplit.splitting`` and
the package itself) and ``uninstall`` puts the originals back, so untraced
passes run the unmodified code.

Two kinds of boundary:

* span boundaries record (name, start, end, parent, job id) in memory;
  self time is a span's duration minus its direct children;
* hot leaf boundaries (field operations, polynomial multiply and Frobenius,
  normal-form reduction) only add to a (count, seconds) pair, counting the
  outermost call, because they run up to millions of times per pass.

A traced name that no longer exists raises at install time, so a refactor
that moves a boundary breaks the traced run loudly instead of reporting 0.
"""

from __future__ import annotations

import importlib
import json
import sys
from functools import wraps
from statistics import median
from time import perf_counter

# (module, attribute, span name); attributes of classes are "Class.method".
SPANS = (
    ("fsplit.cli", "main", "cli.main"),
    ("fsplit.ringspec", "parse_ring_spec", "ringspec.parse"),
    ("fsplit.ringspec", "parse_polynomial", "ringspec.parse"),
    ("fsplit.splitting", "normalized_splitting_number", "splitting.normalized_splitting_number"),
    ("fsplit.splitting", "gorenstein_splitting_number", "splitting.gorenstein_splitting_number"),
    ("fsplit.splitting", "_colon_multiplier", "splitting.K_colon"),
    ("fsplit.splitting", "_primal_gb", "splitting.primal_colon"),
    ("fsplit.splitting", "_dual_length", "splitting.dual"),
    ("fsplit.splitting", "socle_generator", "splitting.socle"),
    ("fsplit.localization", "semicontinuity_scan", "localization.semicontinuity_scan"),
    ("fsplit.localization", "s_e_at_prime", "localization.s_e_at_prime"),
    ("fsplit.localization", "localize_at_coordinate_prime", "localization.localize"),
    ("fsplit.ideals", "colon_ideal", "ideals.colon_ideal"),
    ("fsplit.ideals", "intersect", "ideals.intersect"),
    ("fsplit.ideals", "frobenius_power", "ideals.frobenius_power"),
    ("fsplit.groebner", "buchberger", None),  # named groebner.buchberger_<order kind>
    ("fsplit.artinian", "length", "artinian.length"),
    ("fsplit.artinian", "krull_dimension", "artinian.krull_dimension"),
)

LEAVES = (
    ("fsplit.groebner", "_nf", "groebner.normal_form"),
    ("fsplit.poly", "Polynomial.__mul__", "poly.mul"),
    ("fsplit.poly", "Polynomial.__rmul__", "poly.mul"),
    ("fsplit.poly", "Polynomial.frobenius", "poly.frobenius"),
    ("fsplit.fields", "RationalFunctionField.add", "fields.ratfunc"),
    ("fsplit.fields", "RationalFunctionField.sub", "fields.ratfunc"),
    ("fsplit.fields", "RationalFunctionField.mul", "fields.ratfunc"),
    ("fsplit.fields", "RationalFunctionField.div", "fields.ratfunc"),
    ("fsplit.fields", "RationalFunctionField.inv", "fields.ratfunc"),
    ("fsplit.fields", "RationalFunctionField.neg", "fields.ratfunc"),
)

NAME, START, END, PARENT, JOB = range(5)


def _buchberger_label(args, kwargs) -> str:
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    if order is None:
        ring = ideal.ring if hasattr(ideal, "ring") else next(iter(ideal)).ring
        order = ring.order
    return f"groebner.buchberger_{order.kind}"


class Tracer:
    """Spans and leaf counters for one traced pass."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.leaves: dict = {}  # name -> [outermost calls, seconds]
        self.basis_max = 0
        self.basis_terms = 0
        self.job = None
        self._stack: list = []
        self._restore: list = []

    # -- recording ------------------------------------------------------------

    def _span(self, name, fn, label=None):
        spans, stack = self.spans, self._stack
        is_gb = label is not None

        @wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [label(args, kwargs) if is_gb else name, perf_counter(), None,
                 stack[-1] if stack else -1, self.job]
            )
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = perf_counter()
                stack.pop()
            if is_gb:
                self.basis_max = max(self.basis_max, len(result.basis))
                self.basis_terms += sum(len(g.terms) for g in result.basis)
            return result

        return wrapped

    def _leaf(self, name, fn, depth):
        stat = self.leaves.setdefault(name, [0, 0.0])

        @wraps(fn)
        def wrapped(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - t0
                stat[0] += 1
                depth[0] = 0

        return wrapped

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        depths: dict = {}
        for module, attr, name in SPANS:
            original = getattr(importlib.import_module(module), attr)
            label = _buchberger_label if name is None else None
            self._rebind(original, self._span(name, original, label))
        for module, attr, name in LEAVES:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._leaf(name, original, depths.setdefault(name, [0])))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._leaf(name, original, depths.setdefault(name, [0])))

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every fsplit module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "fsplit" and not modname.startswith("fsplit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------------

    def self_times(self) -> list:
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """Per-layer totals for this pass: '<layer>.<name>' -> value."""
        spans = self.spans
        self_t = self.self_times()
        total: dict = {}
        calls: dict = {}
        self_total: dict = {}
        for s, st in zip(spans, self_t):
            name = s[NAME]
            dur = s[END] - s[START]
            outer = s[PARENT] < 0 or spans[s[PARENT]][NAME] != name
            if outer:
                total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0.0) + st
        gor_colon = sum(
            s[END] - s[START]
            for s in spans
            if s[NAME] == "ideals.colon_ideal"
            and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "splitting.gorenstein_splitting_number"
        )
        leaf = self.leaves
        return {
            "splitting.K_colon_s": total.get("splitting.K_colon", 0.0),
            "splitting.primal_colon_s": total.get("splitting.primal_colon", 0.0),
            "splitting.dual_s": total.get("splitting.dual", 0.0),
            "splitting.gorenstein_colon_s": gor_colon,
            "splitting.socle_s": total.get("splitting.socle", 0.0),
            "groebner.buchberger_elim_s": total.get("groebner.buchberger_elim", 0.0),
            "groebner.buchberger_elim_calls": calls.get("groebner.buchberger_elim", 0),
            "groebner.buchberger_grevlex_s": total.get("groebner.buchberger_grevlex", 0.0),
            "groebner.buchberger_grevlex_calls": calls.get("groebner.buchberger_grevlex", 0),
            "groebner.normal_form_s": leaf["groebner.normal_form"][1],
            "groebner.normal_form_calls": leaf["groebner.normal_form"][0],
            "groebner.basis_max": self.basis_max,
            "groebner.basis_terms": self.basis_terms,
            "ideals.intersect_calls": calls.get("ideals.intersect", 0),
            "ideals.intersect_self_s": self_total.get("ideals.intersect", 0.0),
            "ideals.colon_ideal_calls": calls.get("ideals.colon_ideal", 0),
            "ideals.colon_ideal_self_s": self_total.get("ideals.colon_ideal", 0.0),
            "ideals.frobenius_power_s": total.get("ideals.frobenius_power", 0.0),
            "artinian.length_s": total.get("artinian.length", 0.0),
            "artinian.length_calls": calls.get("artinian.length", 0),
            "artinian.krull_dimension_s": total.get("artinian.krull_dimension", 0.0),
            "poly.mul_s": leaf["poly.mul"][1],
            "poly.mul_calls": leaf["poly.mul"][0],
            "poly.frobenius_s": leaf["poly.frobenius"][1],
            "fields.ratfunc_ops": leaf["fields.ratfunc"][0],
            "fields.ratfunc_s": leaf["fields.ratfunc"][1],
            "localization.localize_s": total.get("localization.localize", 0.0),
            "localization.s_e_at_prime_calls": calls.get("localization.s_e_at_prime", 0),
            "ringspec.parse_s": total.get("ringspec.parse", 0.0),
            "cli.self_s": self_total.get("cli.main", 0.0),
        }


def combine(per_pass: list) -> tuple:
    """Median of each time (``*_s``) over traced passes; counts must repeat exactly.

    Returns (metrics, names of counts that differed between passes).
    """
    out = {}
    unstable = []
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            out[key] = median(values)
        else:
            if len(set(values)) != 1:
                unstable.append(key)
            out[key] = values[0]
    return out, unstable


def write_spans(path, tracers) -> None:
    """One JSON line per span: pass, id, name, start, end, parent id, job."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, tracer in enumerate(tracers):
            for i, s in enumerate(tracer.spans):
                record = {"pass": index, "id": i, "name": s[NAME], "start": s[START],
                          "end": s[END], "parent": s[PARENT], "job": s[JOB]}
                handle.write(json.dumps(record) + "\n")
