"""Spans around calls into the package's public functions.

The tracer patches module attributes (and the ``rows`` methods of the two
tomographic models) with thin wrappers.  While an operation is open each call
records a span ``(name, start, end, parent, op)`` plus the counts measured at
that boundary; between operations the wrappers call straight through.  Spans
stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct children,
so the self times of all spans under one operation add up to the operation's
own duration.  The layer of a span is the part of its name before the first
dot; the operation's root span belongs to ``experiments``.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time

import sparsetomo.certify as certify
import sparsetomo.experiments as ex
import sparsetomo.io as stio
import sparsetomo.models as models
import sparsetomo.phantoms as phantoms
import sparsetomo.wavelets as wavelets

LAYERS = ("wavelets", "phantoms", "models", "solve", "certify", "experiments", "io")

ROOT = "experiments.op"


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _solve_counts(args, kwargs, res):
    return {"iters": res.iterations, "gap": res.gap, "status": res.status}


# (owner, attribute, span name, counts(args, kwargs, result) -> dict).  Callers
# inside the package bind some functions by name at import, so the wrapper is
# installed where the caller looks it up.
PATCHES = (
    (wavelets, "build_atlas", "wavelets.build_atlas", None),
    (ex, "build_atlas", "wavelets.build_atlas", None),
    (ex, "truncation_positions", "wavelets.truncation_positions", None),
    (ex, "synthesis", "wavelets.synthesis", None),
    (ex, "image_norm", "wavelets.image_norm", None),
    (phantoms, "make_phantom", "phantoms.make_phantom", None),
    (ex, "draw_samples", "models.draw_samples", None),
    (ex, "assemble_system", "models.assemble_system",
     lambda a, k, out: {"A_bytes": out.matrix.nbytes}),
    (models.RadonModel, "rows", "models.rows",
     lambda a, k, out: {"atoms": out.shape[0]}),
    (models.FanBeamModel, "rows", "models.rows",
     lambda a, k, out: {"atoms": out.shape[0]}),
    (certify, "population_gram_matrix", "models.population_gram_matrix",
     lambda a, k, out: {"quad_nodes": a[2]}),
    (ex, "compute_gram", "certify.compute_gram", None),
    (ex, "delta_star_montecarlo", "certify.delta_star_montecarlo",
     lambda a, k, out: {"supports": out.trials_or_supports}),
    (ex, "sample_complexity", "certify.sample_complexity", None),
    (ex, "solve_constrained_l1", "solve.solve_constrained_l1", _solve_counts),
    (ex, "run_recovery_cell", "experiments.run_recovery_cell", None),
    (ex, "run_certification_report", "experiments.run_certification_report", None),
    (stio, "write_records_csv", "io.write_records_csv",
     lambda a, k, out: {"bytes": os.path.getsize(a[0])}),
    (stio, "write_certificate_report", "io.write_certificate_report",
     lambda a, k, out: {"bytes": _dir_bytes(a[0])}),
)

SOLVE = "solve.solve_constrained_l1"


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    The last call of the constrained solver is kept in ``last_solve`` as
    ``(args, result)`` whether or not an operation is open, so a caller can
    read the iteration count of an untraced operation and re-check or re-run
    the solve; the caller clears it, which releases the system it holds.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self.last_solve = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, counts in PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                out = fn(*args, **kwargs)
            else:
                span = {"name": name, "op": self.op,
                        "parent": self._stack[-1] if self._stack else -1}
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span["start"] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    self._stack.pop()
                if counts is not None:
                    span.update(counts(args, kwargs, out))
            if name == SOLVE:
                self.last_solve = (args, out)
            return out
        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as one traced operation under a root span."""
        self.op = op_id
        try:
            return self._wrap(fn, ROOT, None)(*args)
        finally:
            self.op = None

    def add_span(self, name, op_id, start, end, **counts):
        """Record a span timed by the caller, outside any operation tree."""
        self.spans.append({"name": name, "op": op_id, "parent": -1,
                           "start": start, "end": end, **counts})


def _dur(span):
    return span["end"] - span["start"]


def root_seconds(spans, op_id):
    """Duration of the root span of one operation."""
    return next(_dur(sp) for sp in reversed(spans)
                if sp["op"] == op_id and sp["name"] == ROOT)


def self_times(spans, op_id):
    """Per-layer self time of one operation, in seconds."""
    child = {}
    for sp in spans:
        if sp["op"] == op_id and sp["parent"] >= 0:
            child[sp["parent"]] = child.get(sp["parent"], 0.0) + _dur(sp)
    out = dict.fromkeys(LAYERS, 0.0)
    for i, sp in enumerate(spans):
        if sp["op"] == op_id and not sp["name"].startswith("solve.prep"):
            out[sp["name"].split(".")[0]] += _dur(sp) - child.get(i, 0.0)
    return out


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, op_ids):
    """Per-layer metrics over the traced operations ``op_ids``.

    Times and counts are means per operation; status counts are totals;
    build_atlas_s and make_phantom_s are medians per call, wherever called.
    """
    per_op = []
    for op_id in op_ids:
        mine = [sp for sp in spans if sp["op"] == op_id]

        def total(name, key=None, agg=sum):
            vals = [(_dur(sp) if key is None else sp[key])
                    for sp in mine if sp["name"] == name]
            return agg(vals) if vals else 0.0

        solve_s = total(SOLVE)
        prep_s = total("solve.prep")
        iters = total(SOLVE, "iters")
        per_op.append({
            "models.assemble_s": total("models.assemble_system"),
            "models.rows_s": total("models.rows"),
            "models.rows_calls": float(sum(sp["name"] == "models.rows" for sp in mine)),
            "models.rows_atoms": float(total("models.rows", "atoms")),
            "models.A_mb": total("models.assemble_system", "A_bytes", max) / 1e6,
            "models.gram_s": total("models.population_gram_matrix"),
            "solve.solve_s": solve_s,
            "solve.prep_s": prep_s,
            "solve.iter_s": (solve_s - prep_s) / iters if iters else 0.0,
            "solve.iters": float(iters),
            "certify.compute_gram_s": total("certify.compute_gram"),
            "certify.quad_nodes": float(total("models.population_gram_matrix", "quad_nodes")),
            "certify.delta_mc_s": total("certify.delta_star_montecarlo"),
            "certify.supports": float(total("certify.delta_star_montecarlo", "supports")),
            "wavelets.synthesis_s": total("wavelets.synthesis"),
            "experiments.cell_s": total("experiments.run_recovery_cell"),
            "experiments.report_s": total("experiments.run_certification_report"),
            "io.write_s": total("io.write_records_csv") + total("io.write_certificate_report"),
            "io.bytes": float(total("io.write_records_csv", "bytes")
                              + total("io.write_certificate_report", "bytes")),
            **{f"{layer}.self_s": v for layer, v in self_times(spans, op_id).items()},
        })
    out = {k: _mean([row[k] for row in per_op]) for k in (per_op[0] if per_op else {})}

    ops = set(op_ids)
    solves = [sp for sp in spans if sp["name"] == SOLVE and sp["op"] in ops]
    gaps = [sp["gap"] for sp in solves if math.isfinite(sp["gap"])]
    out["solve.gap"] = _mean(gaps)
    out["solve.no_feasible"] = float(len(solves) - len(gaps))
    for status in ("optimal", "max_iters", "infeasible"):
        out[f"solve.{status}"] = float(sum(sp["status"] == status for sp in solves))
    for key, name in (("wavelets.build_atlas_s", "wavelets.build_atlas"),
                      ("phantoms.make_phantom_s", "phantoms.make_phantom")):
        durs = [_dur(sp) for sp in spans if sp["name"] == name]
        out[key] = statistics.median(durs) if durs else 0.0
    return out
