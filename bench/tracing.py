"""In-memory span tracer for the traced benchmark run.

The benchmark records spans from its own wrappers around the public
functions of each conics92 module.  The package imports names with
``from .x import f``, so a wrapper must replace the name in the namespace of
the module that calls it, not only in the module that defines it; PATCHES
lists every (calling module, attribute, span name) triple.
``NumericChartSystem.eval`` is a method, so its class attribute is patched.

A span is the list ``[name, start, end, parent, op, rows]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` identifies the
benchmark op that caused it and ``rows`` is the batch size of an ``eval``
call (0 elsewhere).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

PATCHES = (
    ("conics92.harness", "verify", "harness.verify"),
    ("conics92.harness", "brute_force_fq", "harness.brute_force_fq"),
    ("conics92.harness", "reduce_instance", "harness.reduce_instance"),
    ("conics92.harness", "gen_random_instance", "harness.gen_random_instance"),
    ("conics92.harness", "gen_planted_instance", "harness.gen_planted_instance"),
    ("conics92.harness", "solve_all", "solver.solve_all"),
    ("conics92.harness", "assemble_enriched_count", "solver.assemble_enriched_count"),
    ("conics92.solver", "start_solutions", "solver.start_solutions"),
    ("conics92.solver", "conic_coeffs_transition", "geometry.conic_coeffs_transition"),
    ("conics92.harness", "conic_coeffs_transition", "geometry.conic_coeffs_transition"),
    ("conics92.harness", "meet_plane_oracle", "geometry.meet_plane_oracle"),
    ("conics92.harness", "genericity_check", "geometry.genericity_check"),
    ("conics92.harness", "jacobian", "section.jacobian"),
    ("conics92.harness", "eval_section", "section.eval_section"),
    ("conics92.section", "det", "linalg.det"),
    ("conics92.harness", "gw_equal", "gw.gw_equal"),
    ("conics92.harness", "invariants", "gw.invariants"),
    ("conics92.gw", "invariants", "gw.invariants"),
    # splits solver.solve_all.self_s into the batched solves and the rest
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
)

EVAL = "solver.NumericChartSystem.eval"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def wrap_eval(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(chartsys, x, jac=False, raw=False):
            name = EVAL + (".jac" if jac else ".nojac")
            rows = int(np.shape(x)[0]) if np.ndim(x) > 1 else 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, rows]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(chartsys, x, jac=jac, raw=raw)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Patch every wrapper in for the duration of one op."""
        from conics92.solver import NumericChartSystem

        self.op = op
        saved = []
        try:
            for modname, attr, name in PATCHES:
                mod = importlib.import_module(modname)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            saved.append((NumericChartSystem, "eval", NumericChartSystem.eval))
            NumericChartSystem.eval = self.wrap_eval(NumericChartSystem.eval)
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)
            self.op = None

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and rows."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, rows in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        for k, (name, start, end, parent, op, rows) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[k]
            agg["rows"] += rows
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "rows")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
