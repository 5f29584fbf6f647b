"""Spans and counters recorded around calls into the dre layers.

The traced run replaces module and class attributes with timing wrappers
for the length of a `with Tracer.installed():` block.  Every attribute a
caller looks the function up through is wrapped, because `from x import f`
binds a second name: `dre.env.sample_masks` and `dre.montecarlo.sample_masks`
are the same function reached through two modules.

Spans are kept in memory as [name, start, end, parent] and written out at
the end of the run.  A span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# Layer name -> the (module or class path, attribute) pairs its callers use.
LAYERS = {
    "rng.hash": [("dre.rng", "hash_parts")],
    "env.sample": [("dre.env", "sample_masks"), ("dre.montecarlo", "sample_masks")],
    "bitgrid.pack": [("dre.bitgrid:PackedGrid", "from_arrows")],
    "bitgrid.reach": [("dre.bitgrid:PackedGrid", "reach")],
    "montecarlo.row_sweep": [("dre.montecarlo", "_row_propagate")],
    "clusters.classify": [("dre.montecarlo", "classify_b_shape")],
    "clusters.verify_blocking": [("dre.clusters", "verify_blocking_function"),
                                 ("dre.bounds", "verify_blocking_function")],
    "bounds.verify_duality": [("dre.bounds", "verify_duality")],
}
# One fixpoint iteration of PackedGrid.reach; counted, not spanned, because
# a span per step would cost more than the step on small windows.
GROW_STEPS = [("dre.bitgrid:PackedGrid", "_grow_forward"),
              ("dre.bitgrid:PackedGrid", "_grow_backward")]
# Packed arrays one grow step reads or writes: the set, four direction
# masks and the result.
GROW_OPERANDS = 6
ENTRY = "montecarlo"


def _resolve(path: str):
    """"module" or "module:Class" -> the object whose attributes are wrapped."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span log plus the counters the layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name, nested under the open span."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            self._observe(name, out)
            return out
        return traced

    def _observe(self, layer: str, out) -> None:
        if layer == "rng.hash":
            self.counts["rng.hash.values"] += out.size
            self.maxima["rng.hash.max_bytes"] = max(self.maxima["rng.hash.max_bytes"],
                                                    out.nbytes)
        elif layer == "env.sample":
            self.counts["env.sample.sites"] += out.size

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.counts["grow_steps"] += 1
            return fn(*args)
        return counted

    def _reach(self, fn):
        def traced(grid, ix, iy, backward=False, stop_at_edge=False):
            before = self.counts["grow_steps"]
            r, touched = self.call("bitgrid.reach", fn, grid, ix, iy,
                                   backward=backward, stop_at_edge=stop_at_edge)
            iters = self.counts["grow_steps"] - before
            self.counts["bitgrid.reach.iters"] += iters
            self.maxima["bitgrid.reach.iters_max"] = max(
                self.maxima["bitgrid.reach.iters_max"], iters)
            self.counts["bitgrid.reach.bytes_computed"] += iters * GROW_OPERANDS * r.nbytes
            # with stop_at_edge, contact returns at once, before the fixpoint
            self.counts["bitgrid.reach.early_exits"] += bool(stop_at_edge and touched)
            return r, touched
        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer attribute; restore the originals on exit."""
        saved = []
        targets = [(layer, path, attr) for layer, pairs in LAYERS.items()
                   for path, attr in pairs]
        targets += [("grow", path, attr) for path, attr in GROW_STEPS]
        try:
            for layer, path, attr in targets:
                owner = _resolve(path)
                raw = vars(owner).get(attr)
                if raw is None:
                    self.unwrapped.append(f"{path}.{attr}")
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if layer == "grow":
                    new = self._counted(fn)
                elif layer == "bitgrid.reach":
                    new = self._reach(fn)
                else:
                    new = self._spanned(layer, fn)
                saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(new) if is_cm else new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]][0] += 1
            totals[span[0]][1] += own
        return {name: (n, s) for name, (n, s) in totals.items()}

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
