"""In-process spans around tcmap's layers, recorded from the benchmark's side.

The tracer replaces public functions at the module attributes their callers
look up (for example `tcmap.experiments.basin_grid`, which `cli` reaches as
`ex.basin_grid`) with wrappers that record a span: name, start, end and the
span that was open when it started.  Spans and counts stay in memory and are
written out once, when the run ends.  `restore()` puts the originals back.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, after=None, span: bool = True) -> None:
        """Record calls of module.attr under `name`.

        With span=False only the call count `name` is kept (for functions
        called hundreds of times per operator).  `after(span, args, result)`
        attaches counts once the call has returned, outside the span.
        """
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            if not span:
                self.counts[name] += 1
                return orig(*args, **kwargs)
            sid = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                # a child span of the caller, so that counting is not charged to the caller's self time
                count_sid = self.open("trace.count")
                after(self.spans[sid], sig.bind(*args, **kwargs).arguments, result)
                self.close(count_sid)
            return result

        wrapper.__wrapped__ = orig
        setattr(module, attr, wrapper)
        self._originals.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    # --- reading the spans back ------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def amount(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Duration of `name` spans minus the time their direct children cover."""
        ids = {i for i, s in enumerate(self.spans) if s["name"] == name}
        child = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name) - child

    def under(self, ancestor: str, name: str, key: str) -> float:
        """Sum of `key` over `name` spans that run inside an `ancestor` span."""
        out = 0
        for s in self.spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p >= 0 and self.spans[p]["name"] != ancestor:
                p = self.spans[p]["parent"]
            if p >= 0:
                out += s.get(key, 0)
        return out


def install(tracer: Tracer, tcmap) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    cli, ex, rm = tcmap.cli, tcmap.experiments, tcmap.rational_map
    tc, proto, out = tcmap.tavis_cummings, tcmap.protocol, tcmap.output

    def basin_done(span, args, grid):
        if args.get("exact_op") is None:
            span["useful"] = int(np.asarray(grid.iterations).sum())

    def discrimination_done(span, args, report):
        span["sample_steps"] = int(args["samples"]) * int(args["steps"])

    def cells(span, args, result):
        span["cells"] = int(np.asarray(args["z"]).size)

    def fock(span, args, joint):
        span["levels"] = len(joint.channel_00)

    def csv_written(span, args, result):
        with open(args["path"], "rb") as fh:
            data = fh.read()
        span["bytes"] = len(data)
        span["rows"] = data.count(b"\n") - 1

    def ppm_written(span, args, result):
        span["bytes"] = os.path.getsize(args["path"])

    tracer.wrap(ex, "basin_grid", "experiments.basin_grid", basin_done)
    tracer.wrap(ex, "phi_sweep", "experiments.phi_sweep")
    tracer.wrap(ex, "discrimination_run", "experiments.discrimination_run", discrimination_done)
    tracer.wrap(rm, "apply_map_grid", "rational_map.apply_map_grid", cells)
    tracer.wrap(rm, "escape_guard_grid", "rational_map.escape_guard_grid")
    tracer.wrap(rm, "find_attractive_cycles", "rational_map.find_attractive_cycles")
    tracer.wrap(tc, "default_truncation", "tavis_cummings.default_truncation")
    tracer.wrap(tc, "poisson_tail_mass", "tavis_cummings.poisson_tail_mass", span=False)
    # protocol imported these two by name, so its own attributes are wrapped too
    tracer.wrap(tc, "poisson_amplitudes", "tavis_cummings.poisson_amplitudes", span=False)
    tracer.wrap(proto, "poisson_amplitudes", "tavis_cummings.poisson_amplitudes", span=False)
    tracer.wrap(proto, "evolve_exact", "tavis_cummings.evolve_exact", fock)
    tracer.wrap(proto, "exact_step_operator", "protocol.exact_step_operator")
    tracer.wrap(proto, "write_step_operator", "protocol.write_step_operator")
    tracer.wrap(proto, "read_step_operator", "protocol.read_step_operator")
    tracer.wrap(out, "render_basin_image", "output.render_basin_image")
    tracer.wrap(out, "write_ppm", "output.write_ppm", ppm_written)
    tracer.wrap(out, "write_csv", "output.write_csv", csv_written)
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    t = tracer
    mapped = t.under("experiments.basin_grid", "rational_map.apply_map_grid", "cells")
    useful = t.amount("experiments.basin_grid", "useful")
    return {
        "cli.self_s": (t.self_time("cli.main"), "s"),
        "experiments.basin_grid_s": (t.total("experiments.basin_grid"), "s"),
        "experiments.phi_sweep_s": (t.total("experiments.phi_sweep"), "s"),
        "experiments.discrimination_run_s": (t.total("experiments.discrimination_run"), "s"),
        "experiments.discrimination_sample_steps": (t.amount("experiments.discrimination_run", "sample_steps"), "count"),
        "experiments.basin_useful_ratio": (useful / mapped if mapped else 0.0, "ratio"),
        "rational_map.apply_map_grid_s": (t.total("rational_map.apply_map_grid"), "s"),
        "rational_map.apply_map_grid_cells": (t.amount("rational_map.apply_map_grid", "cells"), "count"),
        "rational_map.escape_guard_grid_s": (t.total("rational_map.escape_guard_grid"), "s"),
        "rational_map.find_attractive_cycles_s": (t.total("rational_map.find_attractive_cycles"), "s"),
        "rational_map.find_attractive_cycles_calls": (
            sum(s["name"] == "rational_map.find_attractive_cycles" for s in t.spans), "count"),
        "tavis_cummings.default_truncation_s": (t.total("tavis_cummings.default_truncation"), "s"),
        "tavis_cummings.poisson_tail_mass_calls": (t.counts["tavis_cummings.poisson_tail_mass"], "count"),
        "tavis_cummings.poisson_amplitudes_calls": (t.counts["tavis_cummings.poisson_amplitudes"], "count"),
        "tavis_cummings.evolve_exact_s": (t.total("tavis_cummings.evolve_exact"), "s"),
        "tavis_cummings.fock_levels": (t.amount("tavis_cummings.evolve_exact", "levels"), "count"),
        "protocol.exact_step_operator_s": (t.total("protocol.exact_step_operator"), "s"),
        "protocol.write_step_operator_s": (t.total("protocol.write_step_operator"), "s"),
        "protocol.read_step_operator_s": (t.total("protocol.read_step_operator"), "s"),
        "output.render_basin_image_s": (t.total("output.render_basin_image"), "s"),
        "output.write_ppm_s": (t.total("output.write_ppm"), "s"),
        "output.write_csv_s": (t.total("output.write_csv"), "s"),
        "output.csv_rows": (t.amount("output.write_csv", "rows"), "count"),
        "output.csv_bytes": (t.amount("output.write_csv", "bytes"), "bytes"),
        "output.ppm_bytes": (t.amount("output.write_ppm", "bytes"), "bytes"),
    }
