"""In-memory span tracer wrapped around gcgeo's public functions and methods.

`Tracer.install` replaces every public function of the layer modules, and
the public and arithmetic methods of their classes, with a timing wrapper.
A replaced function is rebound in every gcgeo namespace that binds it (for
example `gcs` imports `mukai_coeff` by name) and in dict registries such as
`cli.COMMANDS`, so no call escapes.  Scalar arithmetic is too fine to span:
GaussRat operations are only counted, and Poly arithmetic is timed into
per-function totals without keeping individual spans.

A span is (name, start, end, parent span, operation id).  Spans are kept in
memory and written out by `write`.  A span's self time is its duration minus
the time its child spans cover; a layer's self time is the sum over the
spans of its module.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "linalg", "forms", "clifford", "isotropics", "gcs", "fields",
          "integrability", "algebroid", "branes", "suites", "jobio", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")
GAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__")
GAUSS_NORMS = ("__init__", "_raw")
POLY_SPANS = {"__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
              "__mul__": "mul", "__rmul__": "mul", "diff": "diff"}
# accessors too small to time: their cost stays in the caller's self time
SKIP = {"coeff", "coords", "rows", "matrix"}
LINALG_KERNELS = ("rref", "kernel", "solve", "inverse", "det", "rank")
MAX_SPANS = 300_000


def _group(name: str):
    """Families whose outermost spans are summed inclusively."""
    if name in ("linalg.ring_det", "linalg.adjugate_inverse"):
        return "ring_det"
    if name in ("forms.mukai_coeff", "forms.mukai_pair"):
        return "mukai"
    if name == "jobio.load_document" or name.startswith("jobio.parse_"):
        return "parse"
    if name == "jobio.emit":
        return "emit"
    if name in ("cli.build_parser", "cli.parse_args"):
        return "argparse"
    if name.startswith("cli.cmd_"):
        return "dispatch"
    return None


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.stack = []  # frames: [name, child_ns, span_index]
        self.spans = []
        self.dropped = 0
        self.names = {}
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.group_ns = defaultdict(int)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self._undo = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, fn, keep: bool = True):
        tracer = self
        stack = self.stack
        group = _group(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns
        name_id = self.names.setdefault(name, len(self.names))

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0, -1]
            if keep:
                if len(tracer.spans) < MAX_SPANS:
                    frame[2] = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.dropped += 1
            stack.append(frame)
            if group:
                tracer.depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if group:
                    tracer.depth[group] -= 1
                    if not tracer.depth[group]:
                        tracer.group_ns[group] += dur
                if frame[2] >= 0:
                    tracer.spans[frame[2]] = (name_id, t0, t1,
                                              parent[2] if parent else -1, tracer.op_id)
            if hook:
                hook(tracer.counts, args, result, parent[0] if parent else "")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, layer: str, cls, replaced: dict):
        for attr, raw in list(cls.__dict__.items()):
            if isinstance(raw, (staticmethod, classmethod)):
                fn, kind = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, kind = raw, None
            else:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if layer == "scalars":
                if cls.__name__ == "GaussRat" and attr in GAUSS_NORMS:
                    new = self._counter("gauss_norms", fn)
                elif cls.__name__ == "GaussRat" and attr in GAUSS_OPS:
                    new = self._counter("gauss_ops", fn)
                elif cls.__name__ == "Poly" and attr in POLY_SPANS:
                    new = self._span(f"scalars.Poly.{POLY_SPANS[attr]}", fn, keep=False)
                else:
                    continue
            elif (attr.startswith("_") and attr not in ARITHMETIC) or attr in SKIP:
                continue
            else:
                new = self._span(name, fn)
            self._set(cls, attr, kind(new) if kind else new)
            replaced[fn] = new

    def install(self):
        """Wrap every layer module, then rebind the wrappers everywhere."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gcgeo.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj, replaced)
                elif inspect.isfunction(obj) and layer != "scalars":
                    replaced[obj] = self._span(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "gcgeo" and not modname.startswith("gcgeo."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            self._undo.append((obj, key, val))
                            obj[key] = replaced[val]
        # the CLI parses through argparse; time it as part of the cli layer
        parse = argparse.ArgumentParser.parse_args
        self._set(argparse.ArgumentParser, "parse_args", self._span("cli.parse_args", parse))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e9

    def metrics(self) -> dict:
        c = self.counts
        s = self.self_ns
        cells_piv = c["rref_rows"]
        out = {
            "scalars.gauss_norms": c["gauss_norms"],
            "scalars.gauss_ops": c["gauss_ops"],
            "scalars.poly_mul_calls": self.calls["scalars.Poly.mul"],
            "scalars.poly_mul_s": s["scalars.Poly.mul"] / 1e9,
            "scalars.poly_add_s": s["scalars.Poly.add"] / 1e9,
            "scalars.poly_diff_s": s["scalars.Poly.diff"] / 1e9,
            "scalars.poly_terms_out": c["poly_terms_out"],
            "linalg.self_s": self.layer_self_s("linalg"),
            "linalg.calls": sum(self.calls[f"linalg.{k}"] for k in LINALG_KERNELS),
            "linalg.cells": c["linalg_cells"],
            "linalg.pivot_ratio": c["rref_pivots"] / cells_piv if cells_piv else 0.0,
            "linalg.ring_det_s": self.group_ns["ring_det"] / 1e9,
            "forms.self_s": self.layer_self_s("forms"),
            "forms.wedge_pairs": c["wedge_pairs"],
            "forms.mukai_s": self.group_ns["mukai"] / 1e9,
            "clifford.self_s": self.layer_self_s("clifford"),
            "isotropics.self_s": self.layer_self_s("isotropics"),
            "isotropics.null_space_rows": c["null_space_rows"],
            "gcs.self_s": self.layer_self_s("gcs"),
            "fields.self_s": self.layer_self_s("fields"),
            "fields.courant_calls": self.calls["fields.courant_bracket"],
            "fields.d_calls": self.calls["fields.d"],
            "integrability.self_s": self.layer_self_s("integrability"),
            "integrability.ansatz_cells": c["ansatz_cells"],
            "integrability.ansatz_fill": (c["ansatz_nonzero"] / c["ansatz_unknowns"]
                                          if c["ansatz_unknowns"] else 0.0),
            "algebroid.self_s": self.layer_self_s("algebroid"),
            "branes.self_s": self.layer_self_s("branes"),
            "suites.self_s": self.layer_self_s("suites"),
            "jobio.parse_s": self.group_ns["parse"] / 1e9,
            "jobio.emit_s": self.group_ns["emit"] / 1e9,
            "cli.argparse_s": self.group_ns["argparse"] / 1e9,
            "cli.dispatch_s": self.group_ns["dispatch"] / 1e9,
        }
        return out

    def write(self, path: str):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names, "dropped": self.dropped,
                       "spans": [s for s in self.spans if s is not None]},
                      fh, separators=(",", ":"))


# -- counting hooks: (counts, args, result, parent span name) ----------------------

def _matrix_cells(m):
    return len(m) * (len(m[0]) if m else 0)


def _rref(c, args, result, parent):
    c["linalg_cells"] += _matrix_cells(args[0])
    c["rref_rows"] += len(args[0])
    c["rref_pivots"] += len(result[1])


def _det(c, args, result, parent):
    c["linalg_cells"] += _matrix_cells(args[0])


def _ansatz(c, args, result, parent):
    if parent.startswith("integrability."):
        c["ansatz_cells"] += _matrix_cells(args[0])


def _ansatz_solve(c, args, result, parent):
    if parent.startswith("integrability."):
        c["ansatz_cells"] += _matrix_cells(args[0])
        if result is not None:
            c["ansatz_unknowns"] += len(result)
            c["ansatz_nonzero"] += sum(1 for x in result if x)


def _wedge(c, args, result, parent):
    c["wedge_pairs"] += len(args[0].terms) * len(args[1].terms)


def _null_space(c, args, result, parent):
    c["null_space_rows"] += 1 << args[0].dim


def _poly_mul(c, args, result, parent):
    if result is not NotImplemented:
        c["poly_terms_out"] += len(result.terms)


_HOOKS = {
    "linalg.rref": _rref,
    "linalg.det": _det,
    "linalg.kernel": _ansatz,
    "linalg.solve": _ansatz_solve,
    "forms.MixedForm.wedge": _wedge,
    "isotropics.null_space": _null_space,
    "scalars.Poly.mul": _poly_mul,
}
