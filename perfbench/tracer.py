"""Span tracing around the calls into each bicayley module, from outside it.

`Tracer.install()` replaces each traced function at every place callers look
it up: the module-level name in every loaded ``bicayley`` module that holds
the function object (so ``families.canonical_digest``,
``symmetry.graph6_encode`` and ``permgroup.compose`` are all covered), and the
class attribute for methods.  Nothing under ``src/`` is edited; `uninstall()`
puts the originals back.

A span is ``(span_id, name, start, end, parent_id, call_id)`` with times in
seconds from the tracer's start.  Spans stay in memory and are written out
once, by `write_spans`.  A layer's self time is its span's duration minus the
time covered by its direct child spans; children of one span run one after
another, so their durations add up without overlap.

Three kinds of wrapper keep the overhead proportionate to the call:

* ``span``: timed and stored as a span;
* ``hot``: timed and aggregated, but not stored (tuple permutation
  primitives, called hundreds of thousands of times per run);
* ``count``: counted only (``PairGroup.mul``, about 850k calls per order-81
  census), its time stays in the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

SPAN, HOT, COUNT = "span", "hot", "count"
MAX_SPANS = 1_000_000  # beyond this, spans are counted as dropped, not stored


@dataclass(frozen=True)
class Target:
    layer: str  # span name
    module: str  # defining module
    attr: str  # "func" or "Class.method"
    kind: str = SPAN
    after: Callable[["Tracer", tuple, Any], None] | None = None


def _g6_out_bytes(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.counts["graphs.g6_encode_bytes"] += len(result)


def _g6_in_bytes(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.counts["graphs.g6_decode_bytes"] += len(args[0])


def _autos_canon(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.counts["search.autos_found"] += len(args[0].autos)


def _autos_auto(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.counts["search.autos_found"] += len(result)


def _census_counts(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.counts["families.census_labellings"] += result.generating_pair_count
    tr.counts["families.census_classes"] += len(result.classes)


TARGETS: tuple[Target, ...] = (
    Target("metacyclic.mul", "bicayley.metacyclic", "PairGroup.mul", COUNT),
    Target("metacyclic.closure", "bicayley.metacyclic", "PairGroup.closure"),
    Target("bicay.build", "bicayley.bicay", "BiCayleyGraph.__init__"),
    Target("bicay.maps", "bicayley.bicay", "sigma_map"),
    Target("bicay.maps", "bicayley.bicay", "delta_map"),
    Target("bicay.maps", "bicayley.bicay", "right_translation"),
    Target("bicay.maps", "bicayley.bicay", "spoke_stabilizer_maps"),
    Target("graphs.g6_encode", "bicayley.graphs", "graph6_encode", after=_g6_out_bytes),
    Target("graphs.g6_decode", "bicayley.graphs", "graph6_decode", after=_g6_in_bytes),
    Target("refine", "bicayley.symmetry", "_Engine.refine"),
    Target("search.canon", "bicayley.symmetry", "_Search.run_canon", after=_autos_canon),
    Target("search.auto", "bicayley.symmetry", "_Search.run_auto", after=_autos_auto),
    Target("symmetry.aut_group", "bicayley.symmetry", "aut_group"),
    Target("symmetry.canonical_form", "bicayley.symmetry", "canonical_form"),
    Target("permgroup.order", "bicayley.permgroup", "PermGroup.order"),
    Target("permgroup.orbits", "bicayley.permgroup", "PermGroup.orbits"),
    Target("permgroup.contains", "bicayley.permgroup", "PermGroup.contains"),
    Target("permgroup.compose", "bicayley.permgroup", "compose", HOT),
    Target("permgroup.compose", "bicayley.permgroup", "invert", HOT),
    Target("permgroup.compose", "bicayley.permgroup", "perm_power", HOT),
    Target("classify", "bicayley.symmetry", "classify"),
    Target("classify.orbit_tuple", "bicayley.permgroup", "orbit_of_tuple"),
    Target("families.census", "bicayley.families", "census", after=_census_counts),
    Target("families.cert", "bicayley.families", "verify_semisymmetric_family"),
    Target("families.cert", "bicayley.families", "verify_symmetric_family"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        # per span name: [calls, inclusive seconds (outermost spans only), self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.call_id = 0
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._active: dict[str, int] = {}
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------------

    def _enter(self, name: str) -> tuple[list, float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list, start: float, store: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        if not self._active[name]:
            st[1] += dur
        st[2] += dur - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        if store:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (frame[0], name, start - self._t0, end - self._t0,
                     parent[0] if parent else 0, self.call_id)
                )
            else:
                self.dropped += 1

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run fn() under a stored span (the benchmark's per-call root span)."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        frame, start = self._enter(name)
        try:
            return fn()
        finally:
            self._exit(name, frame, start, True)

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.layer
        if target.kind == COUNT:
            counts = self.counts
            key = name + "_calls"
            counts.setdefault(key, 0)

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        self.stats.setdefault(name, [0, 0.0, 0.0])
        store = target.kind == SPAN
        after = target.after

        def traced(*args, **kwargs):
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, store)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key in ("graphs.g6_encode_bytes", "graphs.g6_decode_bytes", "search.autos_found",
                    "families.census_labellings", "families.census_classes"):
            self.counts.setdefault(key, 0)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bicayley" or n.startswith("bicayley."))]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(target, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_under(self, name: str, ancestor: str) -> float:
        """Summed duration of outermost `name` spans that have an `ancestor` span above them."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, sname, start, end, parent, _ in self.spans:
            if sname != name:
                continue
            found = False
            p = by_id.get(parent)
            while p is not None:
                if p[1] == name:
                    break  # nested inside an outer `name` span, already counted
                if p[1] == ancestor:
                    found = True
                    break
                p = by_id.get(p[4])
            if found:
                total += end - start
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["span_id", "name", "start_s", "end_s", "parent_id", "call_id"],
                "dropped": self.dropped,
                "spans": self.spans,
            }, fh)


def check_nesting(spans: list) -> list[str]:
    """Problems with the span tree: unknown parents, escaping intervals, mixed call ids."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, name, start, end, parent, call_id in spans:
        if end < start:
            problems.append(f"span {sid} ({name}) ends before it starts")
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"span {sid} ({name}) has unknown parent {parent}")
            continue
        if start < p[2] or end > p[3]:
            problems.append(f"span {sid} ({name}) escapes parent {parent} ({p[1]})")
        if call_id != p[5]:
            problems.append(f"span {sid} ({name}) has call id {call_id}, parent has {p[5]}")
    return problems
