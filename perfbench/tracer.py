"""Outside-in tracer: spans and counters around zonodiff's public functions.

The package's modules bind each other's functions with ``from .x import y``,
so a caller reaches a function through whichever module attribute it
imported. :func:`patch_everywhere` therefore replaces the function at every
``zonodiff`` module attribute that holds it, and ``undo`` restores them. No
file under ``src/`` is changed.

A span records a name, start, end and parent. The self time of a span is
its duration minus the time covered by its direct child spans. Spans are
kept in memory while ``recording`` is set and written out by
:meth:`Tracer.write_spans` when the run ends; per-name call counts and self
times accumulate until :meth:`Tracer.take` hands them over and resets them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

import zonodiff
from zonodiff import cli, intersection, metrics, network, observers, plant, zonotope

# Functions that get a span, named <module>.<function>.
SPAN_TARGETS = [
    ("plant.simulate", plant.simulate),
    ("network.run_simulation", network.run_simulation),
    ("network.run_round", network.run_round),
    ("observers.local_update", observers.local_update),
    ("observers.fuse_update", observers.fuse_update),
    ("observers.sm_time_update", observers.sm_time_update),
    ("intersection.frobenius_optimal_gain", intersection.frobenius_optimal_gain),
    ("intersection.intersect_strips", intersection.intersect_strips),
    ("intersection.intersect_zonotopes", intersection.intersect_zonotopes),
    ("intersection.optimal_diffusion_weights",
     intersection.optimal_diffusion_weights),
    ("zonotope.reduce", zonotope.reduce),
    ("zonotope.contains_point", zonotope.contains_point),
    ("zonotope.vertices_2d", zonotope.vertices_2d),
    ("metrics.build_records", metrics.build_records),
    ("metrics.summarize", metrics.summarize),
    ("cli.execute_run", cli.execute_run),
    ("cli.cmd_grid", cli.cmd_grid),
]

# Counters without a span; their time stays in the caller's self time.
COUNTERS = ("zonotope.constructed", "zonotope.contains_point.lp",
            "zonotope.reduce.reduced", "metrics.hausdorff_pairs",
            "cli.bytes_written")


def patch_everywhere(original, replacement) -> list:
    """Replace ``original`` at every ``zonodiff`` module attribute bound to it.

    Returns the undo list of ``(module, attribute, original)`` triples.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "zonodiff" and not name.startswith("zonodiff."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    if not undo:
        raise RuntimeError(f"{original!r} is bound in no zonodiff module")
    return undo


def undo_patches(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._undo: list = []

    def _span(self, name, fn, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = -1
            if self.recording:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    self.spans[index] = (name, frame[1], end, parent)

        return wrapper

    def _counter(self, name, fn, weight=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _reduced(self, args, result):
        if result is not args[0]:
            self.counts["zonotope.reduce.reduced"] += 1

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name, fn in SPAN_TARGETS:
            hook = self._reduced if name == "zonotope.reduce" else None
            self._undo += patch_everywhere(fn, self._span(name, fn, hook))
        self._undo += patch_everywhere(
            zonotope._contains_lp,
            self._counter("zonotope.contains_point.lp", zonotope._contains_lp))
        self._undo += patch_everywhere(
            metrics.cdist, self._counter("metrics.hausdorff_pairs", metrics.cdist))
        self._undo += patch_everywhere(
            cli._atomic_write,
            self._counter("cli.bytes_written", cli._atomic_write,
                          lambda path, text: len(text.encode("utf-8"))))
        post_init = zonodiff.Zonotope.__post_init__
        zonodiff.Zonotope.__post_init__ = self._counter("zonotope.constructed",
                                                        post_init)
        self._undo.append((zonodiff.Zonotope, "__post_init__", post_init))

    def uninstall(self) -> None:
        undo_patches(self._undo)
        self._undo = []

    def take(self) -> dict:
        """Per-layer numbers accumulated since the last call, then reset."""
        out = {}
        for name, _ in SPAN_TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update({name: self.counts[name] for name in COUNTERS})
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(setup: dict, passes: list[dict]) -> dict:
    """Per-layer metrics of the set-up plus one pass.

    Counts come from one pass and must repeat exactly in every pass; self
    times are the median over the traced passes.
    """
    first = passes[0]
    for other in passes[1:]:
        for key, value in first.items():
            if not key.endswith("_s") and other[key] != value:
                raise RuntimeError(f"count {key} differs between passes")
    out = {}
    for key in first:
        if key.endswith("_s"):
            out[key] = setup[key] + statistics.median(p[key] for p in passes)
        else:
            out[key] = setup[key] + first[key]
    reduce_calls = out["zonotope.reduce.calls"]
    contains_calls = out["zonotope.contains_point.calls"]
    out["zonotope.reduce.reduced_frac"] = (
        out["zonotope.reduce.reduced"] / reduce_calls if reduce_calls else 0.0)
    out["zonotope.contains_point.lp_frac"] = (
        out["zonotope.contains_point.lp"] / contains_calls
        if contains_calls else 0.0)
    return out
