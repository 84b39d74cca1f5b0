"""Span recorder for the traced run, applied from outside the program.

Each public function named in ``TARGETS`` is replaced, at every name a
caller looks it up by (its module attribute and every ``from ... import``
copy in other thermoform modules), with a wrapper that records a span:
name, start, end and parent.  Spans stay in memory in flat arrays and are
written out once at the end.  Self time is a span's duration minus the
time covered by its children; single-threaded nesting means children never
overlap, so that cover is the plain sum of their durations.

Nothing is wrapped unless ``install`` is called, which only the traced run
does.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name).  "Class.method" patches the class attribute.
TARGETS = [
    ("thermoform.expr", "parse", "expr.parse"),
    ("thermoform.expr", "differentiate", "expr.differentiate"),
    ("thermoform.expr", "grad", "expr.grad"),
    ("thermoform.expr", "hessian", "expr.hessian"),
    ("thermoform.expr", "ScalarField.value", "expr.value"),
    ("thermoform.geometry", "low_discrepancy_samples", "geometry.low_discrepancy_samples"),
    ("thermoform.geometry", "d_residual", "geometry.d_residual"),
    ("thermoform.legendre", "surface_embed", "legendre.surface_embed"),
    ("thermoform.legendre", "pullback_contact", "legendre.pullback_contact"),
    ("thermoform.processes", "godograph_det", "processes.godograph_det"),
    ("thermoform.processes", "spinodal_scan", "processes.spinodal_scan"),
    ("thermoform.processes", "entropy_action", "processes.entropy_action"),
    ("thermoform.processes", "admissibility", "processes.admissibility"),
    ("thermoform.processes", "rate_relation_residual", "processes.rate_relation_residual"),
    ("thermoform.thermoelastic", "rates", "thermoelastic.rates"),
    ("thermoform.thermoelastic", "step", "thermoelastic.step"),
    ("thermoform.ferroelectric", "fe_rates", "ferroelectric.fe_rates"),
    ("thermoform.ferroelectric", "fe_step", "ferroelectric.fe_step"),
    ("thermoform.config", "load_yaml", "config.load_yaml"),
    ("thermoform.cli", "main", "cli.main"),
]
# config.time_fn_* build the forcing channels; the callables they return are wrapped.
FORCING_BUILDERS = ("time_fn_scalar", "time_fn_vector", "time_fn_matrix")
FORCING_SPAN = "config.forcing"


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        """Record a span per call; a call made directly inside a span of the
        same name (recursion through the module global) folds into it."""
        def traced(*args, **kwargs):
            if self.stack and self.names[self.name[self.stack[-1]]] == name:
                return fn(*args, **kwargs)
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)
        traced.__wrapped__ = fn
        return traced

    def rollup(self, root: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, over ``root``'s subtree
        (every span when ``root`` is None)."""
        n = len(self.start)
        inside = [root is None] * n
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if root is not None:
                inside[i] = i == root or (p >= 0 and inside[p])
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if not inside[i]:
                continue
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[i]) * 1e-9
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({"id": i, "name": self.names[self.name[i]],
                                     "start_ns": self.start[i], "end_ns": self.end[i],
                                     "parent": self.parent[i]}) + "\n")


def install(rec: SpanRecorder):
    """Wrap every target at every name it is bound to; returns an undo function."""
    patched = []

    def rebind(original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermoform" or mod_name.startswith("thermoform.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    for mod_name, attr, span in TARGETS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            patched.append((cls, meth, original))
            setattr(cls, meth, rec.wrap(original, span))
        else:
            original = getattr(mod, attr)
            rebind(original, rec.wrap(original, span))

    config = sys.modules["thermoform.config"]
    for attr in FORCING_BUILDERS:
        builder = getattr(config, attr)

        def forcing_builder(*args, _builder=builder, **kwargs):
            return rec.wrap(_builder(*args, **kwargs), FORCING_SPAN)
        rebind(builder, forcing_builder)

    def undo():
        for obj, attr, value in reversed(patched):
            setattr(obj, attr, value)
    return undo
