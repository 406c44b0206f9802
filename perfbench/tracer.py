"""Per-layer tracing of trustgate from outside the package.

Every public module-level function of each trustgate module is replaced by a
timing wrapper, in its own module and in every other module that imported
it, so calls between layers pass through the wrappers without any change to
``src/``. A wrapper records calls, inclusive time and self time (inclusive
time minus the time of wrapped calls made inside it). Recording happens only
while ``Tracer.active`` is set, so the benchmark's own checks are not counted.
Aggregates are kept in memory; spans are not stored one by one, because a
single job makes hundreds of thousands of calls. Peak allocations are taken
with tracemalloc in a round of their own (``Tracer.alloc_active``), because
tracemalloc slows small numpy allocations enough to distort the timings.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
import types

import numpy as np

LAYERS = ("core_math", "objectives", "verification", "trainer", "landscape", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0.0


def _finetune_rows(args, kwargs, result) -> float:
    model, cfg = args[0], (args[2] if len(args) > 2 else kwargs["cfg"])
    batch = model.num_contexts if cfg.batch_size is None else min(cfg.batch_size, model.num_contexts)
    return float(batch * cfg.steps)


def _landscape_cells(args, kwargs, result) -> float:
    return float(np.isfinite(result.cells).sum())


def _emit_bytes(args, kwargs, result) -> float:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return float(os.path.getsize(path))


# Work counted after a call returns, as ``Stat.extra``.
_EXTRA = {
    "trainer.finetune": _finetune_rows,
    "landscape.gradient_landscape": _landscape_cells,
    "landscape.emit": _emit_bytes,
}
# Calls whose peak Python-heap allocation is taken with tracemalloc.
_ALLOC = ("trainer.build_task", "trainer.finetune")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.alloc_active = False
        self.stats: dict[str, Stat] = {}
        self.alloc_peaks: dict[str, list[float]] = {key: [] for key in _ALLOC}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        extra = _EXTRA.get(key)
        alloc = key in _ALLOC
        tracer = self

        def wrapper(*args, **kwargs):
            if alloc and tracer.alloc_active:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.alloc_peaks[key].append(tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
            if extra is not None:
                stat.extra += extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        layers = {layer: importlib.import_module(f"trustgate.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in layers.items():
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not name.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(value, f"{layer}.{name}")
        for module in [*layers.values(), importlib.import_module("trustgate")]:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._installed.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._installed):
            setattr(module, name, value)
        self._installed.clear()

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job per-layer figures, named as in BENCHMARK.json."""

        def stat(key: str) -> Stat:
            return self.stats.get(key, Stat())

        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [s for k, s in self.stats.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(s.calls for s in members) / jobs
            out[f"{layer}.self_s"] = sum(s.self_time for s in members) / jobs
        for key in (
            "core_math.validate_dist",
            "core_math.shannon_entropy",
            "core_math.deformed_loss",
            "verification.minimize_risk",
            "landscape.construct_distribution",
        ):
            out[f"{key}.calls"] = stat(key).calls / jobs
        for key in (
            "verification.run_property_suite",
            "verification.minimize_risk",
            "verification.fd_gradient",
            "trainer.build_task",
            "trainer.finetune",
            "trainer.quadrant_stats",
            "trainer.probability_histogram",
            "landscape.gradient_landscape",
            "landscape.construct_distribution",
            "landscape.emit",
        ):
            out[f"{key}.s"] = stat(key).total / jobs
        finetune, grid, emit = stat("trainer.finetune"), stat("landscape.gradient_landscape"), stat("landscape.emit")
        out["trainer.finetune.row_updates_per_s"] = finetune.extra / finetune.total if finetune.total else 0.0
        out["landscape.cells_per_s"] = grid.extra / grid.total if grid.total else 0.0
        out["landscape.emit.bytes"] = emit.extra / emit.calls if emit.calls else 0.0
        for key, peaks in self.alloc_peaks.items():
            out[f"{key}.peak_alloc_mb"] = max(peaks) if peaks else 0.0
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """Every wrapped function that was called, for the trace file."""
        return {
            key: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for key, s in sorted(self.stats.items())
            if s.calls
        }
