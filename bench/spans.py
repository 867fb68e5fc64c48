"""Spans and counters around calls into each layer of ``superconc``.

The layers are the package modules.  ``Tracer.install()`` wraps each
module's public functions, plus the private helpers that some counters sit
on, and rebinds the wrapper under every name any ``superconc`` module
binds the function to: ``from .x import f`` copies the name, so patching
the defining module alone would miss those calls.

A span records its name, its parent span, and its start and end.  Spans
stay in memory until ``save()``; ``layer_metrics()`` turns a saved file
into self times (a span's duration minus its child spans' durations) and
counts.  One thread only: the parent is the top of a single stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("rng", "covariance", "sampler", "extremes", "covering", "verify",
          "scantest", "experiments")

# private helpers wrapped because a counter sits on them
PRIVATE = {"sampler._cholesky_factor", "sampler._circulant_embedding_2d"}

FACTOR_SPANS = ("sampler._cholesky_factor", "sampler.circulant_embedding",
                "sampler._circulant_embedding_2d")


def _out_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths.values())


# span name -> ((counter, amount from the call's result), ...)
COUNTERS = {
    "rng.stream_generator": (("rng.streams", lambda r: 1),),
    "rng.normal_rows": (("rng.normals", lambda r: r.size),),
    "rng.complex_normal_rows": (("rng.normals", lambda r: 2 * r.size),),
    "covariance.gram_matrix": (("covariance.gram_entries", lambda r: r.size),),
    "sampler._cholesky_factor": (("sampler.factorizations", lambda r: 1),),
    "sampler.circulant_embedding": (("sampler.factorizations", lambda r: 1),
                                    ("sampler.embed_elems", lambda r: r[0].size)),
    "sampler._circulant_embedding_2d": (("sampler.factorizations", lambda r: 1),
                                        ("sampler.embed_elems", lambda r: r[0].size)),
    "extremes.sample_maxima": (("extremes.paths", lambda r: r[0].size),),
    "extremes.max_argmax": (("extremes.paths", lambda r: r.maxima.size),),
    "scantest.set_sums": (("scantest.set_sums_calls", lambda r: 1),),
    "experiments.run": (("experiments.out_bytes", lambda r: _out_bytes(r)),),
}

COUNT_METRICS = ("rng.streams", "rng.normals", "covariance.gram_entries",
                 "sampler.factorizations", "sampler.embed_elems", "extremes.paths",
                 "scantest.set_sums_calls", "experiments.out_bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        counters = COUNTERS.get(span, ())
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            for counter, amount in counters:
                counts[counter] += amount(result)
            return result

        return traced

    def install(self):
        """Wrap every layer's functions and rebind them across the package."""
        import superconc  # noqa: F401  (loads every module)
        importlib.import_module("superconc.cli")
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"superconc.{layer}"]
            for attr, obj in vars(mod).items():
                span = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or span in PRIVATE)):
                    wrapped[obj] = self._wrap(obj, span)
        for modname, mod in list(sys.modules.items()):
            if modname != "superconc" and not modname.startswith("superconc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 count_names=np.array(sorted(self.counts)),
                 count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                       dtype=np.int64))


def layer_metrics(path) -> dict[str, float]:
    """Per-layer self times, factor and verify times, and counts from a span file."""
    with np.load(path) as f:
        names, name, parent = f["names"], f["name"], f["parent"]
        dur = f["end"] - f["start"]
        counts = dict(zip(f["count_names"].tolist(), f["count_values"].tolist()))
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    own = dur - child[:len(dur)]
    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names.tolist()], dtype=int)
    span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=int)
    self_s = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
    out = {f"{layer}.self_s": float(self_s[i]) for i, layer in enumerate(LAYERS)}

    def total(*spans):
        ids = [i for i, s in enumerate(names.tolist()) if s in spans]
        return float(dur[np.isin(name, ids)].sum())

    out["sampler.factor_s"] = total(*FACTOR_SPANS)
    out["covering.verify_s"] = total("covering.verify_covering")
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    return out
