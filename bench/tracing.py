"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces the module and class attributes that each
caller looks up with timing wrappers, so no package source changes; a
name that no longer exists is reported as missing and its layer's
metrics become null instead of crashing the run.  Spans stay in memory
as (name, op, start, end, parent) tuples.  A span's self time is its
duration minus the durations of the spans it directly encloses; calls
are single-threaded, so those never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time


def _arg(i):
    return lambda args, kwargs, result: args[i]


# layer -> [(module, attribute or "Class.method", counter, how)] where
# ``how`` maps (args, kwargs, result) to the counter's increment, or to
# the candidate value when the counter is a maximum: "max_index" is the
# largest index reached by a family with an index cap.
_LAYERS = {
    "core.codec": [
        ("padiclab.core", "_digits_of", "digits", _arg(2)),
        ("padiclab.grids", "_digits_of", "digits", _arg(2)),
    ],
    "core.residue": [("padiclab.core", "PadicApprox.residue", None, None)],
    "core.arith": [
        ("padiclab.core", f"PadicApprox.{name}", None, None)
        for name in ("__add__", "__sub__", "__mul__", "invert", "shift")
    ] + [
        ("padiclab.core", "padic_from_rational", None, None),
        ("padiclab.cli", "padic_from_rational", None, None),
        ("padiclab.core", "padic_from_integer", None, None),
    ],
    "analysis": [
        ("padiclab.analysis", "padic_log", None, None),
        ("padiclab.grids", "padic_log", None, None),
        ("padiclab.analysis", "teichmuller", None, None),
        ("padiclab.analysis", "exp_series_coeffs", None, None),
    ],
    "sequences": [("padiclab.shear", "sequence_term", "terms", lambda a, k, r: 1)],
    "sequences.bell": [("padiclab.sequences", "bell_mod", "max_index", _arg(0))],
    "sequences.catalan": [("padiclab.sequences", "catalan_exact", "max_index", _arg(0))],
    "sequences.motzkin": [("padiclab.sequences", "motzkin_exact", "max_index", _arg(0))],
    "sequences.factorial": [("padiclab.sequences", "odd_factorial_mod", "max_index", _arg(0))],
    "sequences.fibonacci": [("padiclab.sequences", "fibonacci_mod", None, None)],
    "sequences.power": [("padiclab.sequences", "power_term", None, None)],
    "shear.limit_detect": [
        ("padiclab.cli", "limit_detect", "converged", lambda a, k, r: int(r.converged)),
        ("padiclab.shear", "limit_detect", "converged", lambda a, k, r: int(r.converged)),
    ],
    "shear.cascade": [("padiclab.shear", "extract_coefficients", None, None)],
    "shear.shear_rows": [("padiclab.grids", "shear_rows", None, None)],
    "grids.build": [
        ("padiclab.grids", name, "cells", lambda a, k, r: r.width * r.height)
        for name in ("grid_powers", "grid_history", "grid_power_tower", "grid_real_rows")
    ] + [
        ("padiclab.grids", "figure_grid", None, None),
        ("padiclab.cli", "figure_grid", None, None),
    ],
    "grids.render": [("padiclab.grids", "render_pnm", "render_bytes", lambda a, k, r: len(r))],
    "grids.write": [
        ("padiclab.grids", "emit_image", "write_bytes", lambda a, k, r: os.path.getsize(a[1])),
        ("padiclab.cli", "emit_image", "write_bytes", lambda a, k, r: os.path.getsize(a[1])),
    ],
    "grids.read": [("padiclab.grids", "read_pnm", "read_bytes", lambda a, k, r: len(a[0]))],
    "cli": [("padiclab.cli", "main", None, None)],
}

# Wrapped only to count: each call is one cascade stage.
_STAGE_COUNTER = ("padiclab.shear", "_stage_window")

# Exceptions counted per layer (by class name, so nothing is imported).
_COUNTED_ERRORS = {"sequences": ("BudgetExceeded", "budget_exceeded"),
                   "shear.cascade": ("ExtractionError", "cascade_failed")}

FAMILIES = ("bell", "catalan", "motzkin", "factorial", "fibonacci", "power")
_SEQUENCE_LAYERS = ("sequences",) + tuple(f"sequences.{f}" for f in FAMILIES)


def _layer_metrics(layer: str, *sources: str) -> dict:
    return {f"{layer}.{s}": ((layer,), s) for s in sources}


# Per-layer metric -> (layers whose wrappers it needs, source), where the
# source is "calls", "self_s" or a counter.
METRICS = {
    **_layer_metrics("core.codec", "calls"),
    "core.codec.digits": (("core.codec",), "digits"),
    **_layer_metrics("core.codec", "self_s"),
    **_layer_metrics("core.residue", "calls", "self_s"),
    **_layer_metrics("core.arith", "calls", "self_s"),
    **_layer_metrics("analysis", "calls", "self_s"),
    "sequences.terms": (("sequences",), "terms"),
    "sequences.self_s": (_SEQUENCE_LAYERS, "self_s"),
    "sequences.max_index": (_SEQUENCE_LAYERS[1:5], "max_index"),
    "sequences.budget_exceeded": (("sequences",), "budget_exceeded"),
    **{f"sequences.{f}.self_s": ((f"sequences.{f}",), "self_s") for f in FAMILIES},
    **_layer_metrics("shear.limit_detect", "calls", "self_s"),
    "shear.limit_detect.converged_ratio": (("shear.limit_detect",), "converged_ratio"),
    **_layer_metrics("shear.cascade", "calls", "self_s"),
    "shear.cascade.stages": (("shear.cascade",), "stages"),
    "shear.cascade.failed": (("shear.cascade",), "cascade_failed"),
    **_layer_metrics("shear.shear_rows", "self_s"),
    **_layer_metrics("grids.build", "self_s"),
    "grids.build.cells": (("grids.build",), "cells"),
    **_layer_metrics("grids.render", "self_s"),
    "grids.render.bytes": (("grids.render",), "render_bytes"),
    **_layer_metrics("grids.write", "self_s"),
    "grids.write.bytes": (("grids.write",), "write_bytes"),
    **_layer_metrics("grids.read", "self_s"),
    "grids.read.bytes": (("grids.read",), "read_bytes"),
    **_layer_metrics("cli", "calls", "self_s"),
}


# Unit of a per-layer metric, by the last part of its name.
UNITS = {"calls": "count", "self_s": "s", "digits": "count", "terms": "count",
         "max_index": "count", "budget_exceeded": "count", "converged_ratio": "ratio",
         "stages": "count", "failed": "count", "cells": "count", "bytes": "bytes"}


def _resolve(module_name: str, attr: str):
    """(owner, name, original) or None when the attribute is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if owner is None or not inspect.isfunction(vars(owner).get(attr)):
            return None
    elif not callable(getattr(owner, attr, None)):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wrappers, spans and counters of one traced pass.

    Wrappers record only while ``active`` is set, which the runner does
    around each timed call, and label spans with the current ``op``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.active = False
        self.missing: set[str] = set()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._wrapped: list[tuple] | None = None  # (owner, name, original, wrapper)

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        """Put the wrappers in place; names are resolved on the first call."""
        if self._wrapped is None:
            self._wrapped = self._resolve_all()
        for owner, name, _, wrapper in self._wrapped:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._wrapped or ()):
            setattr(owner, name, original)

    def _resolve_all(self) -> list[tuple]:
        wrapped = []
        for layer, targets in _LAYERS.items():
            self.calls.setdefault(layer, 0)
            self.self_s.setdefault(layer, 0.0)
            for module_name, attr, counter, how in targets:
                found = _resolve(module_name, attr)
                if found is None:
                    self._missing(layer, f"{module_name}.{attr}")
                    continue
                owner, name, original = found
                wrapped.append((owner, name, original,
                                self._wrap(layer, original, counter, how)))
        found = _resolve(*_STAGE_COUNTER)
        if found is None:
            self._missing("shear.cascade", ".".join(_STAGE_COUNTER))
        else:
            owner, name, original = found
            self.counts["stages"] = 0

            def counted(*args, **kwargs):
                self.counts["stages"] += self.active
                return original(*args, **kwargs)

            wrapped.append((owner, name, original, counted))
        return wrapped

    def _missing(self, layer: str, name: str) -> None:
        self.missing.add(layer)
        print(f"warning: trace: {name} not found; {layer} metrics are null",
              file=sys.stderr)

    def _wrap(self, layer, fn, counter, how):
        error = _COUNTED_ERRORS.get(layer)
        if counter is not None:
            self.counts.setdefault(counter, 0)
        if error is not None:
            self.counts.setdefault(error[1], 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [len(self.spans), 0.0, 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None and type(exc).__name__ == error[0]:
                    self.counts[error[1]] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                duration = end - frame[1]
                self.spans[frame[0]] = (layer, self.op, frame[1], end, parent)
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
            if counter is not None:
                value = how(args, kwargs, result)
                if counter == "max_index":
                    self.counts[counter] = max(self.counts[counter], value)
                else:
                    self.counts[counter] += value
            return result

        return traced

    # ----------------------------------------------------------- results

    def metrics(self) -> dict[str, float | int | None]:
        """Every per-layer metric; null where a wrapped name is missing."""
        detect_calls = self.calls.get("shear.limit_detect", 0)
        derived = {
            "converged_ratio":
                self.counts.get("converged", 0) / detect_calls if detect_calls else 0.0,
        }
        out = {}
        for name, (layers, source) in METRICS.items():
            if any(layer in self.missing for layer in layers):
                out[name] = None
            elif source == "calls":
                out[name] = sum(self.calls.get(layer, 0) for layer in layers)
            elif source == "self_s":
                out[name] = sum(self.self_s.get(layer, 0.0) for layer in layers)
            elif source in derived:
                out[name] = derived[source]
            else:
                out[name] = self.counts.get(source, 0)
        return out
