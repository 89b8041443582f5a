"""Spans around the public functions of each `invnoise` layer.

`install` replaces every public function of the layer modules, and the
public methods of their classes, with a wrapper that records a span:
name, start, end, parent span and one work count.  A function that is
imported into another module with ``from .x import y`` is replaced
there too, since the importing module looks the name up in its own
globals; otherwise those calls would be missed.  Spans stay in memory
until the process writes them out.

`summarize` turns the spans of many processes into per-layer figures.
A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cli", "config", "demo", "codec", "predictor", "rng", "gumbel",
          "inversion", "editing", "metrics", "fileio")


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# Work counted per call, keyed by span name.
COUNTERS = {
    "rng.raw64_values": lambda args, kwargs, result: int(result.size),
    "predictor.next_scale_logits": lambda args, kwargs, result: int(result.size),
    "codec.partial_decode": lambda args, kwargs, result: len(args[0]),
    "fileio.write_grid": _file_size,
    "fileio.write_pyramid": _file_size,
    "fileio.write_noise_set": _file_size,
    "fileio.write_pgm": _file_size,
    "fileio.write_metrics_csv": _file_size,
    "fileio.read_grid": _file_size,
    "fileio.read_pyramid": _file_size,
    "fileio.read_noise_set": _file_size,
}


class Tracer:
    """Spans of one process, as [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def install(tracer):
    """Wrap the public functions of every loaded `invnoise` layer module."""
    modules = [m for name, m in sys.modules.items()
               if name == "invnoise" or name.startswith("invnoise.")]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for method, fn in list(vars(obj).items()):
                    if not method.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, method, tracer.wrap(f"{layer}.{method}", fn))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    return len(wrapped)


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Summary:
    """Per-name call counts, self times and work counts over processes."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.work = {}

    def add(self, spans):
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.work[name] = self.work.get(name, 0) + span[4]

    def layer(self, layer, table):
        prefix = layer + "."
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per_layer_metrics(self, operations, edits):
        """Figures per operation; `edits` counts the edits among them."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer(layer, self.calls) / operations, "calls/op")
            out[f"{layer}.self_s"] = (self.layer(layer, self.self_s) / operations, "s/op")

        def per_op(table, name, unit):
            return table.get(name, 0) / operations, unit

        writes = sum(v for k, v in self.work.items() if k.startswith("fileio.write_"))
        reads = sum(v for k, v in self.work.items() if k.startswith("fileio.read_"))
        scenes = self.calls.get("demo.demo_scene", 0)
        out.update({
            "rng.draws": per_op(self.work, "rng.raw64_values", "draws/op"),
            "gumbel.truncated.self_s": per_op(self.self_s, "gumbel.truncated_from_uniform", "s/op"),
            "predictor.logits.calls": per_op(self.calls, "predictor.next_scale_logits", "calls/op"),
            "predictor.logits_cells": per_op(self.work, "predictor.next_scale_logits", "cells/op"),
            "codec.partial_decode.scales": per_op(self.work, "codec.partial_decode", "scales/op"),
            "inversion.tighten.self_s": per_op(self.self_s, "inversion.noise_from_perturbed", "s/op"),
            "inversion.replay.self_s": per_op(self.self_s, "inversion.reconstruct_from_noise", "s/op"),
            "demo.scene.calls": per_op(self.calls, "demo.demo_scene", "calls/op"),
            "demo.edits_per_scene": (edits / scenes if scenes else 0.0, "edits/scene"),
            "config.build_params.calls": per_op(self.calls, "config.build_params", "calls/op"),
            "metrics.ssim.self_s": per_op(self.self_s, "metrics.ssim", "s/op"),
            "fileio.bytes_written": (writes / operations, "B/op"),
            "fileio.bytes_read": (reads / operations, "B/op"),
        })
        return out
