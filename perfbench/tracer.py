"""In-memory spans around the package's public functions, for the traced run.

The tracer replaces each traced function in every ``mwmono`` module that
holds it, under whatever name the module imported it (``mwmono.cli``'s
``simulate_beam``, ``mwmono.beamline``'s ``enumerate_paths``, ...), and
wraps the ``RunConfig`` constructors and factories on the class.  Nothing
is wrapped outside a ``with tracer.installed(mw):`` block, so untimed and
end-to-end runs call the package unmodified.

A span is ``[name, start, end, parent index, op id, outermost]``;
``outermost`` is False when a span of the same name encloses it, so busy
time counts nested calls once.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: (layer, module, public function) traced; names are ``layer.function``.
TRACED_FUNCTIONS = [
    ("cli", "mwmono.cli", "entrypoint"),
    ("diffraction", "mwmono.diffraction", "incidence_for_output"),
    ("geometry", "mwmono.geometry", "enumerate_paths"),
    ("geometry", "mwmono.geometry", "path_census"),
    ("geometry", "mwmono.geometry", "group_paths_by_geometry"),
    ("geometry", "mwmono.geometry", "feasibility_band"),
    ("beamline", "mwmono.beamline", "select_path"),
    ("beamline", "mwmono.beamline", "simulate_beam"),
    ("beamline", "mwmono.beamline", "single_reflection_baseline"),
    ("beamline", "mwmono.beamline", "scan_speed_ratio"),
    ("beamline", "mwmono.beamline", "trace_velocity"),
]
CONFIG_CONSTRUCTORS = ["from_dict", "from_file"]
CONFIG_FACTORIES = ["particle", "grating", "setting", "device", "beamline", "beam"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.op = None
        self.counts: defaultdict = defaultdict(float)
        self._last_path = None
        self.error_types: tuple = ()
        self._observers = {
            "geometry.enumerate_paths": self._on_paths,
            "beamline.select_path": self._on_select,
            "beamline.simulate_beam": self._on_kernel,
            "beamline.single_reflection_baseline": self._on_kernel,
        }

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe else None
        error_types = self.error_types

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, not active[name]]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_types as exc:
                if name.startswith("beamline.") and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts["beamline.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(name, bound.arguments, result)
            return result

        return traced

    def _on_paths(self, name, args, paths):
        self.counts["geometry.paths_considered"] += (2 * args["max_order"] + 1) ** 2
        self.counts["geometry.paths_returned"] += len(paths)

    def _on_select(self, name, args, path):
        self._last_path = path

    def _on_kernel(self, name, args, result):
        cells = args["velocity_bins"] * args["offset_samples"]
        self.counts["beamline.grid_cells"] += cells
        if name == "beamline.simulate_beam":
            path = args["path"] if args["path"] is not None else self._last_path
            self.counts["beamline.bins"] += len(result.weights)
            self.counts["beamline.nonzero_bins"] += int((result.weights > 0).sum())
            self.counts["beamline.rays_traced"] += cells
            self.counts["beamline.rays_passed"] += result.throughput / path.transmission * cells

    @contextlib.contextmanager
    def installed(self, mw):
        """Wrap the traced functions in every loaded mwmono module; restore on exit."""
        self.error_types = (mw.EmptyTransmissionError, mw.BelowCutoffError)
        wrapped = {}
        for layer, module, attr in TRACED_FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        modules = [m for n, m in list(sys.modules.items()) if n == "mwmono" or n.startswith("mwmono.")]
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        cls = mw.RunConfig
        for attr in CONFIG_CONSTRUCTORS + CONFIG_FACTORIES:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"config.{attr}", original.__func__)))
            else:
                setattr(cls, attr, self.wrap("config.factories", original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (outermost spans) and self_s per span name, plus ratios."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, outer in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, parent, op, outer), children in zip(self.spans, child_time):
            calls[name] += 1
            if outer:
                busy[name] += end - start
            self_s[name] += end - start - children
        c = self.counts
        beamline_calls = sum(n for name, n in calls.items() if name.startswith("beamline."))
        out = {}
        for name in sorted(set(calls) | {f"{layer}.{attr}" for layer, _, attr in TRACED_FUNCTIONS}
                           | {f"config.{a}" for a in CONFIG_CONSTRUCTORS} | {"config.factories"}):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({
            "geometry.surviving_frac": _ratio(c["geometry.paths_returned"], c["geometry.paths_considered"]),
            "beamline.grid_cells": c["beamline.grid_cells"],
            "beamline.nonzero_bin_frac": _ratio(c["beamline.nonzero_bins"], c["beamline.bins"]),
            "beamline.ray_pass_frac": _ratio(c["beamline.rays_passed"], c["beamline.rays_traced"]),
            "beamline.errors_frac": _ratio(c["beamline.errors"], beamline_calls),
        })
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op, outer in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
