"""Outside-in layer tracing: timers and counters around riscplane's module boundaries.

The wrappers replace the names one module imported from another (for example
`riscplane.cli.goodput_sweep` or `riscplane.metrics.quantize_phases`), so the
package source stays untouched. Every call site keeps only aggregates (call
count, inclusive time, time spent in wrapped children): hot leaf calls such
as `control_reliability` run hundreds of thousands of times per run, and a
record per call would distort the timings and grow without bound.

Pool workers are forked from the traced process and inherit the wrappers.
Each worker starts from zeroed aggregates and rewrites its own file after
every top-level wrapped call; `collect` sums them with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Aggregated call counts and times per wrapped call site, plus named counters."""

    def __init__(self, worker_dir: Path):
        self.sites: dict[str, list] = {}    # site -> [calls, inclusive_s, child_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []       # child time accumulated per open call
        self._worker_dir = worker_dir
        self._worker_file: Path | None = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        for rec in self.sites.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._stack.clear()
        self._worker_file = self._worker_dir / f"worker-{os.getpid()}.json"

    def _site(self, name: str) -> list:
        return self.sites.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, site, tally=None):
        """Time every call of fn under `site`, a name or a function of the call's arguments.

        tally(arguments) may return (counter, amount) pairs added per call.
        The arguments are bound by name only for calls that need them.
        """
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        fixed = self._site(site) if isinstance(site, str) else None
        signature = inspect.signature(fn) if fixed is None or tally is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = fixed
            if signature is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    arguments = {}          # the call itself will raise
                rec = rec or self._site(site(arguments))
                for key, amount in tally(arguments) if tally else ():
                    counts[key] += amount
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += child
                if stack:
                    stack[-1] += dt
                elif self._worker_file is not None:
                    self._worker_file.write_text(json.dumps(self.snapshot()))

        return traced

    def snapshot(self) -> dict:
        return {"sites": self.sites, "counts": dict(self.counts)}


# (importing module, module it imports from): the layer boundaries that are wrapped
BOUNDARIES = (("cli", "config"), ("cli", "metrics"), ("cli", "control"),
              ("metrics", "channel"), ("metrics", "control"), ("metrics", "frames"))


def _sweep_site(arguments) -> str:
    params = arguments.get("params")
    if params is None:
        return "metrics.goodput_sweep"
    return "metrics.sweep_" + params.scheme.value.replace("-", "_")


def _sweep_tally(arguments):
    from riscplane import metrics

    n_trials = arguments.get("n_trials", 0)
    chunk = getattr(metrics, "CHUNK_TRIALS", 0)
    return (("metrics.curve_trials", n_trials),
            ("metrics.chunks", math.ceil(n_trials / chunk) if chunk else 0))


def _grid_tally(arguments):
    ris, ue = arguments.get("snr_ris_grid_db", ()), arguments.get("snr_ue_grid_db", ())
    return (("metrics.grid_cells", len(ris) * len(ue)),)


def _quantize_tally(arguments):
    phases = arguments.get("phases")
    return (("channel.quantize_elems", getattr(phases, "size", 0)),)


# function name -> (site, tally) where the default (layer.name, no tally) is not enough
SPECIAL = {
    "goodput_sweep": (_sweep_site, _sweep_tally),
    "reliability_grid": ("metrics.reliability_grid", _grid_tally),
    "quantize_phases": ("channel.quantize_phases", _quantize_tally),
}


def install(tracer: Tracer) -> None:
    """Wrap every public function one layer imported from another, per BOUNDARIES.

    Also wraps `RunConfig.validate` (a method, so not a module-level import)
    and `cli.main`, whose self time is argument parsing, row formatting and
    CSV writing.
    """
    modules = {name: importlib.import_module(f"riscplane.{name}")
               for pair in BOUNDARIES for name in pair}
    for importer, exporter in BOUNDARIES:
        module = modules[importer]
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == f"riscplane.{exporter}"
                    and not name.startswith("_")):
                site, tally = SPECIAL.get(name, (f"{exporter}.{name}", None))
                setattr(module, name, tracer.wrap(fn, site, tally))
    config = modules["config"]
    config.RunConfig.validate = tracer.wrap(config.RunConfig.validate, "config.validate")
    modules["cli"].main = tracer.wrap(modules["cli"].main, "cli.main")


def collect(parent: dict, worker_dir: Path) -> dict:
    """Sum the parent's aggregates with those the forked workers left behind."""
    sites = {k: list(v) for k, v in parent["sites"].items()}
    counts = Counter(parent["counts"])
    for path in sorted(worker_dir.glob("worker-*.json")):
        snap = json.loads(path.read_text())
        for name, rec in snap["sites"].items():
            acc = sites.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        counts.update(snap["counts"])
    return {"sites": sites, "counts": dict(counts)}


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer figures from aggregated call sites (see BENCHMARK.json's per_layer list)."""
    sites, counts = snap["sites"], snap["counts"]

    def calls(name):
        return sites.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return sites.get(name, [0, 0.0, 0.0])[1]

    def self_s(prefix):
        return sum(r[1] - r[2] for n, r in sites.items() if n.startswith(prefix))

    sweeps = [n for n in sites if n.startswith("metrics.sweep_")]
    frames = [n for n in sites if n.startswith("frames.")]
    return {
        "metrics.sweep_oce_s": incl("metrics.sweep_oce"),
        "metrics.sweep_bsw_s": incl("metrics.sweep_bsw"),
        "metrics.sweep_bsw_es_s": incl("metrics.sweep_bsw_es"),
        "metrics.self_s": self_s("metrics."),
        "metrics.sweep_calls": sum(calls(n) for n in sweeps),
        "metrics.curve_trials": counts.get("metrics.curve_trials", 0),
        "metrics.chunks": counts.get("metrics.chunks", 0),
        "channel.quantize_calls": calls("channel.quantize_phases"),
        "channel.quantize_s": incl("channel.quantize_phases"),
        "channel.quantize_elems": counts.get("channel.quantize_elems", 0),
        "channel.codebook_calls": calls("channel.make_codebook"),
        "channel.codebook_s": incl("channel.make_codebook"),
        "metrics.grid_calls": calls("metrics.reliability_grid"),
        "metrics.grid_s": incl("metrics.reliability_grid"),
        "metrics.grid_cells": counts.get("metrics.grid_cells", 0),
        "control.reliability_calls": calls("control.control_reliability"),
        "control.reliability_s": incl("control.control_reliability"),
        "control.catalog_calls": calls("control.message_catalog"),
        "cli.self_s": self_s("cli."),
        "config.s": sum(incl(n) for n in sites if n.startswith("config.")),
        "frames.calls": sum(calls(n) for n in frames),
        "frames.s": sum(incl(n) for n in frames),
    }
