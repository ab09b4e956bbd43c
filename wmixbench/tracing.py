"""Spans around the public functions of each wmix layer, from outside.

The tracer replaces each listed function, in every ``wmix`` module
namespace that holds it, with a wrapper that records a span (parent span,
function, op, start, end) in memory. Patching every namespace attributes
calls made through ``from .x import f`` bindings, such as ``monogamy``
calling into ``closed_form`` or ``cli`` into ``statefile``. The
``WMixedState`` constructor is traced through its ``__post_init__``;
``random_mixed`` is a generator, so its spans cover each resumption.

A span's self time is its duration minus the durations of its child
spans. Byte counts are computed from sizes, not measured: dense operators
count 16 D^2 bytes (complex128) each.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("statefile", "load_state"),
    ("statefile", "dumps_canonical"),
    ("statefile", "dumps_state"),
    ("states", "WMixedState"),
    ("states", "partial_trace"),
    ("partitions", "enumerate_bipartitions"),
    ("closed_form", "cross_block_norm"),
    ("closed_form", "negativity_cut"),
    ("closed_form", "pairwise_negativity"),
    ("closed_form", "pairwise_upper_bound"),
    ("closed_form", "is_ppt_cut"),
    ("closed_form", "classify"),
    ("monogamy", "monogamy_single"),
    ("monogamy", "monogamy_partition"),
    ("oracle", "embed_dense"),
    ("oracle", "partial_transpose"),
    ("oracle", "hermitian_spectrum"),
    ("oracle", "negativity_dense"),
    ("sampler", "random_mixed"),
)
LABELS = tuple(f"{module}.{name}" for module, name in LAYER_FUNCTIONS)
COUNTERS = ("statefile.bytes_in", "statefile.bytes_out",
            "oracle.dense_dim_max", "oracle.dense_bytes")


class Tracer:
    """In-memory span store plus per-function call and byte counters."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.calls = dict.fromkeys(LABELS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_index = -1
        self._patches: list[tuple[object, str, object]] = []

    # span recording ------------------------------------------------------
    def _open(self, name_index: int) -> int:
        span = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_index)
        self.op.append(self.op_index)
        self.end.append(0)
        self.stack.append(span)
        self.start.append(perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, label: str, func, after=None):
        index = LABELS.index(label)
        calls = self.calls

        def traced(*args, **kwargs):
            calls[label] += 1
            span = self._open(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_generator(self, label: str, func):
        index = LABELS.index(label)

        def traced(*args, **kwargs):
            self.calls[label] += 1
            inner = func(*args, **kwargs)

            def resumptions():
                while True:
                    span = self._open(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return resumptions()

        traced.__wrapped__ = func
        return traced

    # computed counts -----------------------------------------------------
    def _count_bytes_in(self, args, result) -> None:
        self.counts["statefile.bytes_in"] += os.path.getsize(args[0])

    def _count_bytes_out(self, args, result) -> None:
        self.counts["statefile.bytes_out"] += len(result.encode("utf-8"))

    def _count_dense(self, args, result) -> None:
        dim = result.shape.dense_dim
        self.counts["oracle.dense_bytes"] += 16 * dim * dim
        self.counts["oracle.dense_dim_max"] = max(self.counts["oracle.dense_dim_max"], dim)

    # installation --------------------------------------------------------
    def install(self) -> None:
        """Patch every listed function in every loaded ``wmix`` module."""
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "wmix" or name.startswith("wmix.")]
        after = {
            "statefile.load_state": self._count_bytes_in,
            "statefile.dumps_canonical": self._count_bytes_out,
            "oracle.embed_dense": self._count_dense,
            "oracle.partial_transpose": self._count_dense,
        }
        for (module_name, func_name), label in zip(LAYER_FUNCTIONS, LABELS):
            original = getattr(sys.modules["wmix." + module_name], func_name)
            if func_name == "WMixedState":
                self._patch(original, "__post_init__",
                            self._wrap(label, original.__post_init__))
                continue
            if func_name == "random_mixed":
                wrapper = self._wrap_generator(label, original)
            else:
                wrapper = self._wrap(label, original, after.get(label))
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._patch(module, func_name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # results -------------------------------------------------------------
    def arrays(self) -> dict:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("parent", "name", "op", "start", "end")}

    def self_seconds(self) -> dict:
        """Per function: summed span durations minus their children's."""
        spans = self.arrays()
        duration = (spans["end"] - spans["start"]).astype(float)
        nested = spans["parent"] >= 0
        children = np.bincount(spans["parent"][nested], weights=duration[nested],
                               minlength=len(duration))
        per_name = np.bincount(spans["name"], weights=duration - children,
                               minlength=len(LABELS))
        return {label: float(per_name[i]) / 1e9 for i, label in enumerate(LABELS)}

    def calls_by_op(self, label: str) -> np.ndarray:
        """Spans of ``label`` in each op (resumptions, for generators)."""
        spans = self.arrays()
        mask = spans["name"] == LABELS.index(label)
        return np.bincount(spans["op"][mask], minlength=max(self.op_index + 1, 0))

    def save(self, path: str) -> None:
        np.savez(path, labels=np.array(LABELS), **self.arrays())
