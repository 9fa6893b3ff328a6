"""Span tracing around the calls into grovergeo's layers, from outside the package.

The package is not edited: each patch point is a public function, named by
its home module, and the tracer replaces every reference to that function
object found in the loaded ``grovergeo`` modules (the package namespace, the
CLI's direct imports, sibling-module imports, module attributes called as
``kernels.poly_grid_max`` or ``ent.entanglement_exact``).  The five CLI
commands are traced at their click callbacks.

Each traced call appends one span ``[name, start, end, parent, item]`` to an
in-memory list.  A span's self time is its duration minus the durations of
its direct children.  Counters (cells, sweeps, roots, ...) are taken from the
arguments and results at the same boundary, after the span's end time.

A patch point that no longer exists is skipped and listed in ``missing``;
its metrics read 0 so that the metric set stays fixed across commits.  A
counter whose arguments or result changed shape is listed in
``broken_counters`` and stops counting, without failing the call.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "grovergeo"
CLI_COMMANDS = ("grover-trace", "entangle-sweep", "measure-compare", "search-time", "separability")


def _first(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _cells(args, kwargs, result):
    return {"cells": len(_first(args, kwargs, 1, "r_grid")) * len(_first(args, kwargs, 2, "chi_grid"))}


def _ascent(args, kwargs, result):
    return {"sweeps": int(result[1]), "converged": int(bool(result[2]))}


def _roots(args, kwargs, result):
    return {"roots": int(result.root_count or 0)}


def _symmetric(args, kwargs, result):
    return {"symmetric": int(bool(result[3]))}


def _minor_bytes(args, kwargs, result):
    # computed bytes of the complex128 column-pair outer products: rows^2 per pair
    rows = int(_first(args, kwargs, 1, "m")) + 1
    cols = int(_first(args, kwargs, 2, "m_prime")) + 1
    return {"bytes_computed": 16 * rows * rows * (cols * (cols - 1) // 2)}


def _accepted(args, kwargs, result):
    return {"accepted": int(bool(result.fully_separable))}


def _amplitudes(args, kwargs, result):
    return {"amplitudes": len(result)}


# (home module, function name, counter extractor or None)
PATCH_POINTS = (
    ("kernels", "poly_grid_max", _cells),
    ("kernels", "product_ascent", _ascent),
    ("entanglement", "entanglement_exact", _roots),
    ("entanglement", "extremum_roots", None),
    ("entanglement", "entanglement_approx_curve", None),
    ("entanglement", "entanglement_grid_oracle", None),
    ("entanglement", "closest_product_overlap", _symmetric),
    ("segre", "max_quadric_residual", _minor_bytes),
    ("segre", "is_fully_separable", _accepted),
    ("segre", "grover_separability_residual", None),
    ("grover_engine", "grover_state", _amplitudes),
    ("grover_engine", "success_probability", None),
    ("grover_engine", "search_metrics", None),
    ("ray_space", "fs_distance", None),
    ("ray_space", "canonical_form", None),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, name, _ in PATCH_POINTS:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.self_s"] = "s"
    for command in CLI_COMMANDS:
        for key, unit in (("calls", "count"), ("self_s", "s"), ("rows", "count"), ("bytes", "B")):
            units[f"cli.{command}.{key}"] = unit
    units.update(
        {
            "kernels.poly_grid_max.cells": "count",
            "kernels.poly_grid_max.cells_per_s": "1/s",
            "kernels.product_ascent.sweeps": "count",
            "kernels.product_ascent.converged_ratio": "ratio",
            "entanglement.entanglement_exact.roots": "count",
            "entanglement.closest_product_overlap.symmetric_ratio": "ratio",
            "segre.max_quadric_residual.bytes_computed": "B",
            "segre.is_fully_separable.accepted_ratio": "ratio",
            "grover_engine.grover_state.amplitudes": "count",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class Tracer:
    """Installs span-recording wrappers at the patch points while active."""

    def __init__(self, patch_points=PATCH_POINTS):
        self.patch_points = patch_points
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.broken_counters: set[str] = set()
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for module, name, counter in self.patch_points:
            label = f"{module}.{name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.missing.append(label)
                continue
            original = getattr(home, name, None)
            if not callable(original):
                self.missing.append(label)
                continue
            self._replace_everywhere(original, self._wrap(label, original, counter))
        try:
            commands = importlib.import_module(f"{PACKAGE}.cli").main.commands
        except (ImportError, AttributeError):
            commands = {}
        for command in CLI_COMMANDS:
            cmd = commands.get(command)
            if cmd is None or cmd.callback is None:
                self.missing.append(f"cli.{command}")
                continue
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(f"cli.{command}", cmd.callback, None)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, label, fn, counter):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        counters[label][key] += value
                except (TypeError, ValueError, IndexError, KeyError, AttributeError):
                    self.broken_counters.add(label)
            return result

        return traced

    def begin_item(self, item: int):
        """Open the root span of one workload item."""
        self.item = item
        self._stack.append(len(self.spans))
        self.spans.append(["item", time.perf_counter(), 0.0, -1, item])

    def end_item(self):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def count(self, label: str, **values):
        for key, value in values.items():
            self.counters[label][key] += value

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values of the spans and counters recorded so far."""
        selfs = self.self_times()
        values = {name: 0.0 for name in layer_metric_units()}
        for module, name, _ in PATCH_POINTS:
            label = f"{module}.{name}"
            calls, secs = selfs.get(label, (0, 0.0))
            values[f"{label}.calls"] = calls
            values[f"{label}.self_s"] = secs
        for command in CLI_COMMANDS:
            label = f"cli.{command}"
            calls, secs = selfs.get(label, (0, 0.0))
            values[f"{label}.calls"] = calls
            values[f"{label}.self_s"] = secs
            values[f"{label}.rows"] = self.counters[label]["rows"]
            values[f"{label}.bytes"] = self.counters[label]["bytes"]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        grid_s = values["kernels.poly_grid_max.self_s"]
        values["kernels.poly_grid_max.cells"] = c["kernels.poly_grid_max"]["cells"]
        values["kernels.poly_grid_max.cells_per_s"] = ratio(c["kernels.poly_grid_max"]["cells"], grid_s)
        values["kernels.product_ascent.sweeps"] = c["kernels.product_ascent"]["sweeps"]
        values["kernels.product_ascent.converged_ratio"] = ratio(
            c["kernels.product_ascent"]["converged"], values["kernels.product_ascent.calls"]
        )
        values["entanglement.entanglement_exact.roots"] = c["entanglement.entanglement_exact"]["roots"]
        values["entanglement.closest_product_overlap.symmetric_ratio"] = ratio(
            c["entanglement.closest_product_overlap"]["symmetric"],
            values["entanglement.closest_product_overlap.calls"],
        )
        values["segre.max_quadric_residual.bytes_computed"] = c["segre.max_quadric_residual"]["bytes_computed"]
        values["segre.is_fully_separable.accepted_ratio"] = ratio(
            c["segre.is_fully_separable"]["accepted"], values["segre.is_fully_separable.calls"]
        )
        values["grover_engine.grover_state.amplitudes"] = c["grover_engine.grover_state"]["amplitudes"]
        return values
