"""Span tracing of the package's public functions, from outside the package.

Each traced function is replaced, in every ``qlitho`` module that bound
it, by a wrapper that records one span (name, start, end, parent).  The
package source is not touched.  Spans live in flat arrays while the
workload runs and are written out once at the end; per-layer metrics
are derived from them afterwards.

Layers are the package modules, except that CSV and SVG writing form
one ``output`` layer: ``cli._write_csv`` plus everything in ``svgplot``.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "output", "synthesis", "dosing", "fock", "optics", "baselines")
_MODULES = ("cli", "svgplot", "synthesis", "dosing", "fock", "optics", "baselines")


def _fock_terms(args, kwargs):
    """k-range size summed over the pairs apply_field_power expands."""
    state = args[0]
    power = args[2] if len(args) > 2 else kwargs["power"]
    total = 0
    for n, m in state.amplitudes:
        if n + m >= power:
            total += min(n, power) - max(0, power - m) + 1
    return total


def _optics_terms(args, kwargs):
    """(n+1)(m+1) summed over the pairs evolve expands."""
    return sum((n + 1) * (m + 1) for n, m in args[0].amplitudes)


def _bytes_written(args, kwargs):
    return os.path.getsize(args[0])


# Counts taken from a call's arguments after it returns, outside its span.
_COUNTERS = {
    "fock.apply_field_power": ("fock.terms", _fock_terms),
    "optics.evolve": ("optics.terms", _optics_terms),
    "output._write_csv": ("output.bytes", _bytes_written),
    "output.write_line_chart": ("output.bytes", _bytes_written),
}


def _targets(pkg):
    """{original function: (span name, layer)} for every traced function."""
    exported = {getattr(pkg, name) for name in pkg.__all__}
    found = {}
    for short in _MODULES:
        mod = importlib.import_module(f"{pkg.__name__}.{short}")
        layer = "output" if short == "svgplot" else short
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if obj in exported or (short == "cli" and name in ("main", "resolve_config")):
                found[obj] = (f"{layer}.{name}", layer)
    found[pkg.cli._write_csv] = ("output._write_csv", "output")
    return found


class Tracer:
    """Holds the spans of one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.ga_runs: list[dict] = []
        self.classical_errors: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name, layer):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        counter = _COUNTERS.get(span_name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        errors, counts = self.errors, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            return result

        if span_name == "synthesis.ga_optimize":
            def traced_ga(*args, **kwargs):
                best, trace = traced(*args, **kwargs)
                config = args[2] if len(args) > 2 else kwargs.get("config")
                config = config or self.pkg.GAConfig()
                self.ga_runs.append({"population": config.population,
                                     "generations": config.generations,
                                     "trace": np.asarray(trace, dtype=float)})
                return best, trace
            return traced_ga
        if span_name == "synthesis.best_classical_fit":
            def traced_fit(*args, **kwargs):
                fit = traced(*args, **kwargs)
                self.classical_errors.append(float(fit.error))
                return fit
            return traced_fit
        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, *where) for fn, where in _targets(self.pkg).items()}
        modules = [self.pkg] + [getattr(self.pkg, short) for short in _MODULES]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self, passes: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics, per pass, from the recorded spans.

        ``traced_wall_s`` and ``untraced_wall_s`` are mean pass times with
        and without tracing.  Layer self times plus ``trace.remainder_s``
        add up to ``trace.wall_s``.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n_names = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name_id, minlength=n_names)
        total_by_name = np.bincount(name_id, weights=dur, minlength=n_names)
        self_by_name = np.bincount(name_id, weights=self_time, minlength=n_names)
        index = {name: i for i, name in enumerate(self.names)}

        def calls_of(name):
            return int(calls[index[name]]) if name in index else 0

        def total_of(*names):
            return float(sum(total_by_name[index[n]] for n in names if n in index))

        def self_of(*names):
            return float(sum(self_by_name[index[n]] for n in names if n in index))

        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, layer in enumerate(self.layer_of):
            layer_self[layer] += float(self_by_name[i])

        # Synthesis-layer self time spent under fitness/genome_profile (the
        # ladder path), excluding their dosing and fock descendants.
        ladder_ids = [index[n] for n in ("synthesis.fitness", "synthesis.genome_profile") if n in index]
        synth_ids = [i for i, layer in enumerate(self.layer_of) if layer == "synthesis"]
        in_ladder = np.isin(name_id, ladder_ids)
        parent_or_self = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            grown = in_ladder | in_ladder[parent_or_self]
            if np.array_equal(grown, in_ladder):
                break
            in_ladder = grown
        ladder_self = float(self_time[in_ladder & np.isin(name_id, synth_ids)].sum())

        ga_evals = sum(r["population"] * (r["generations"] + 1) for r in self.ga_runs)
        gens_to_classical, improving = [], []
        for run, classical in zip(self.ga_runs, self.classical_errors):
            trace = run["trace"]
            below = np.flatnonzero(trace < classical)
            gens_to_classical.append(float(below[0]) if below.size else float(len(trace)))
            improving.append(float(np.count_nonzero(np.diff(trace) < 0)) / run["generations"])

        ga_s = total_of("synthesis.ga_optimize")
        dep_s = total_of("dosing.deposition_rate")
        afp_s = total_of("fock.apply_field_power")
        evolve_s = total_of("optics.evolve")
        out_s = total_of("output._write_csv", "output.write_line_chart")
        wall = traced_wall_s * passes

        def rate(x, t):
            return x / t if t > 0 else 0.0

        raw = {
            "cli.resolve_config_s": total_of("cli.resolve_config"),
            "output.csv_s": total_of("output._write_csv"),
            "output.svg_s": total_of("output.write_line_chart"),
            "output.bytes": float(self.counts["output.bytes"]),
            "synthesis.ga_s": ga_s,
            "synthesis.ga_evals": float(ga_evals),
            "synthesis.classical_fit_s": total_of("synthesis.best_classical_fit"),
            "synthesis.ladder_self_s": ladder_self,
            "dosing.deposition_rate_calls": float(calls_of("dosing.deposition_rate")),
            "dosing.deposition_rate_self_s": self_of("dosing.deposition_rate"),
            "dosing.pipeline_rate_calls": float(calls_of("dosing.pipeline_rate")),
            "dosing.exposure_profile_s": total_of("dosing.exposure_profile"),
            "fock.apply_field_power_calls": float(calls_of("fock.apply_field_power")),
            "fock.apply_field_power_s": afp_s,
            "fock.terms": float(self.counts["fock.terms"]),
            "fock.make_state_calls": float(calls_of("fock.make_state")),
            "fock.make_state_s": total_of("fock.make_state"),
            "optics.evolve_calls": float(calls_of("optics.evolve")),
            "optics.evolve_s": evolve_s,
            "optics.terms": float(self.counts["optics.terms"]),
            "baselines.s": layer_self["baselines"],
            "trace.spans": float(len(dur)),
        }
        for layer in LAYERS:
            raw[f"{layer}.self_s"] = layer_self[layer]
            raw[f"{layer}.errors"] = float(self.errors[layer])
        metrics = {name: value / passes for name, value in raw.items()}
        metrics.update({
            "output.mb_per_s": rate(raw["output.bytes"] / 1e6, out_s),
            "synthesis.ga_evals_per_s": rate(ga_evals, ga_s),
            "synthesis.ga_gens_to_classical": float(np.mean(gens_to_classical)) if gens_to_classical else 0.0,
            "synthesis.ga_improving_frac": float(np.mean(improving)) if improving else 0.0,
            "dosing.points_per_s": rate(raw["dosing.deposition_rate_calls"], dep_s),
            "fock.terms_per_s": rate(raw["fock.terms"], afp_s),
            "optics.terms_per_s": rate(raw["optics.terms"], evolve_s),
            "trace.wall_s": traced_wall_s,
            "trace.remainder_s": (wall - sum(layer_self.values())) / passes,
            "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        })
        return metrics
