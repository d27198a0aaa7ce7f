"""Span tracing of bckcodes layers, installed from outside the package.

`Tracer.install` wraps the layer functions named in `LAYERS` and the
constructors of the two wrapped classes.  Every module of the package
that holds a reference to a wrapped function gets the wrapper in its
place, so calls through `from .algebra import check_axioms` are seen
too.  Each call records one span (name, start, end, parent); a stream
layer records one span per `next`.  Spans stay in flat arrays until
`summary` turns them into per-layer calls and self time, where self
time is a span's duration minus the durations of its child spans.

The kernel implementation modules are left alone, so a kernel call is
one span however the kernel is built inside.  Only the listed layers
are wrapped: per-bit helpers such as
`codes.word_leq` run millions of times on the codes workload and would
cost more to trace than they do to run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute, kind).  kind is "call" for a function,
# "class" for a constructor, or the noun of the items a stream yields.
LAYERS = (
    ("kernels.bck_candidates", "bckcodes._kernels", "bck_candidates", "tables"),
    ("kernels.axiom_witnesses", "bckcodes._kernels", "axiom_witnesses", "call"),
    ("algebra.check_axioms", "bckcodes.algebra", "check_axioms", "call"),
    ("algebra.are_isomorphic", "bckcodes.algebra", "are_isomorphic", "call"),
    ("algebra.Poset", "bckcodes.algebra", "Poset", "class"),
    ("algebra.CayleyAlgebra", "bckcodes.algebra", "CayleyAlgebra", "class"),
    ("encode.canonical_code", "bckcodes.encode", "canonical_code", "call"),
    ("encode.generate_code", "bckcodes.encode", "generate_code", "call"),
    ("codes.enumerate_triangular_codes", "bckcodes.codes", "enumerate_triangular_codes", "codes"),
    ("codes.is_triangular_code", "bckcodes.codes", "is_triangular_code", "call"),
    ("codes.lex_sort_desc", "bckcodes.codes", "lex_sort_desc", "call"),
    ("construct.construct_from_code", "bckcodes.construct", "construct_from_code", "call"),
    ("construct.verify_roundtrip", "bckcodes.construct", "verify_roundtrip", "call"),
    ("construct.algebra_from_poset", "bckcodes.construct", "algebra_from_poset", "call"),
    ("lift.lift_code", "bckcodes.lift", "lift_code", "call"),
    ("lift.family_algebra", "bckcodes.lift", "family_algebra", "call"),
    ("census.census", "bckcodes.census", "census", "call"),
    ("census.label_canonical_code", "bckcodes.census", "label_canonical_code", "call"),
    ("io.parse_algebra", "bckcodes.io", "parse_algebra", "call"),
    ("io.render_algebra", "bckcodes.io", "render_algebra", "call"),
    ("io.render_report", "bckcodes.io", "render_report", "call"),
    ("cli.main", "bckcodes.cli", "main", "call"),
)


def count_metric(name: str, kind: str) -> str:
    """Name of the count metric of one layer: calls, or items streamed."""
    return f"{name}.{'calls' if kind in ('call', 'class') else kind}"


class Tracer:
    """Records spans of the wrapped layers in one process."""

    def __init__(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = [0] * len(LAYERS)
        self.isomorphisms_found = 0
        self._check_axioms = None

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap_call(self, fn, name_id: int):
        def wrapper(*args, **kwargs):
            self.counts[name_id] += 1
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_found(self, fn, name_id: int):
        call = self._wrap_call(fn, name_id)

        def wrapper(*args, **kwargs):
            result = call(*args, **kwargs)
            if result is not None:
                self.isomorphisms_found += 1
            return result

        return wrapper

    def _wrap_stream(self, fn, name_id: int):
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._close(idx)
            return self._stream(it, name_id)

        return wrapper

    def _stream(self, it, name_id: int):
        while True:
            idx = self._open(name_id)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[name_id] += 1
            yield item

    def _wrap_class(self, cls, name_id: int) -> None:
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            self.counts[name_id] += 1
            idx = self._open(name_id)
            try:
                init(obj, *args, **kwargs)
            finally:
                self._close(idx)

        cls.__init__ = __init__

    def install(self) -> None:
        """Wrap every layer and patch every package module that refers to it."""
        importlib.import_module("bckcodes.cli")
        modules = [
            m
            for k, m in sys.modules.items()
            if k.split(".")[0] == "bckcodes" and not k.startswith("bckcodes._kernels.")
        ]
        for name_id, (name, module, attr, kind) in enumerate(LAYERS):
            original = getattr(importlib.import_module(module), attr)
            if kind == "class":
                self._wrap_class(original, name_id)
                continue
            if kind == "call" and name == "algebra.are_isomorphic":
                wrapper = self._wrap_found(original, name_id)
            elif kind == "call":
                wrapper = self._wrap_call(original, name_id)
            else:
                wrapper = self._wrap_stream(original, name_id)
            if name == "algebra.check_axioms":
                self._check_axioms = original
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per-layer counts and self time, plus the time covered by spans."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self_time = np.bincount(
            name, weights=dur - child_time, minlength=len(LAYERS)
        )
        metrics = {}
        for name_id, (layer, _, _, kind) in enumerate(LAYERS):
            metrics[count_metric(layer, kind)] = self.counts[name_id]
            metrics[f"{layer}.self_s"] = float(self_time[name_id])
        hits = self._check_axioms.cache_info().hits if self._check_axioms else 0
        metrics["algebra.check_axioms.cache_hits"] = hits
        calls = metrics["algebra.are_isomorphic.calls"]
        metrics["algebra.are_isomorphic.found_ratio"] = (
            self.isomorphisms_found / calls if calls else 0.0
        )
        return {
            "metrics": metrics,
            "isomorphisms_found": self.isomorphisms_found,
            "spans": int(len(dur)),
            "covered_s": float(dur[~nested].sum()),
        }
