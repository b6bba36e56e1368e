"""Span tracer for the benchmark's traced run.

Spans are recorded by wrapping the public functions each blowuplab module
calls, at the name the caller looks up (the modules use ``from .x import y``,
so ``analysis.step_w`` is patched, not ``similarity_solver.step_w``).  Nothing
inside the package is edited; ``Tracer.patched()`` restores every original on
exit.

Each span stores its layer, start, end and parent span.  Self time is a span's
duration minus the durations of its direct children, computed from the span
tree when the run ends.  Counters (steps, probes, bytes) are recorded at the
same boundaries as the spans.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layer name -> (module, attribute) sites where the callers look it up.
SITES = {
    "similarity_solver.step_w": [("analysis", "step_w")],
    "similarity_solver.solve_banded": [("similarity_solver", "solve_banded")],
    "core_math.rescaled_nonlinearity": [("similarity_solver", "rescaled_nonlinearity")],
    "analysis.tune_blowup_amplitude": [("analysis", "tune_blowup_amplitude")],
    "functionals.eval_L": [("analysis", "eval_L")],
    "functionals.snapshot": [("analysis", "snapshot")],
    "core_math.rescaled_F": [("functionals", "rescaled_F")],
    "quadrature.integrate": [
        ("analysis", "integrate"),
        ("functionals", "integrate"),
        ("similarity_solver", "integrate"),
    ],
    "similarity_solver.ds_dissipation": [("analysis", "ds_dissipation")],
    "analysis.run_similarity": [("analysis", "run_similarity"), ("cli", "run_similarity")],
    "physical_solver.step": [("physical_solver", "step")],
    "physical_solver.solve_banded": [("physical_solver", "solve_banded")],
    "core_math.eval_f": [("physical_solver", "eval_f")],
    "physical_solver.run_to_blowup": [("cli", "run_to_blowup")],
    "ode_blowup.time_to_blowup": [("physical_solver", "time_to_blowup")],
    "analysis.fit_rate": [("cli", "fit_rate"), ("analysis", "fit_rate")],
    "physical_solver.laplacian_bands": [
        ("physical_solver", "laplacian_bands"),
        ("similarity_solver", "laplacian_bands"),
    ],
    "cli.parse_config": [("cli", "parse_config")],
    "cli.write_csv": [("cli", "write_csv")],
    "cli.run": [("cli", "run")],
}
LAYERS = tuple(SITES)
OP_SPAN = "op"

# Layers whose inclusive cost per call is reported as .us_per_call.
PER_CALL = ("similarity_solver.step_w", "functionals.eval_L", "physical_solver.step")

# Counters recorded next to the spans: metric name -> unit.
COUNTERS = {
    "analysis.tune_blowup_amplitude.probes": "count",
    "analysis.tune_blowup_amplitude.steps": "count",
    "analysis.run_similarity.steps": "count",
    "physical_solver.run_to_blowup.steps": "count",
    "physical_solver.run_to_blowup.h2_capped_steps": "count",
    "cli.write_csv.bytes": "B",
}


class Tracer:
    """In-memory span store plus the counters of one traced op."""

    def __init__(self) -> None:
        self._names = [OP_SPAN, *LAYERS]
        self._code = {name: i for i, name in enumerate(self._names)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.unpatched: list[str] = []
        self._last_step_out = None

    def _enter(self, name: str) -> int:
        idx = len(self.layer)
        self.layer.append(self._code[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn recording a span per call.  before(args, kwargs) and
        after(args, kwargs, result) update counters outside the span."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrappers(self, originals: dict) -> dict:
        """One wrapper per layer; a few also record counters."""
        c = self.counters

        def before_step_w(args, kwargs):
            if not self._in("analysis.tune_blowup_amplitude"):
                return
            # A tuner probe is a chain of steps, each fed the previous output;
            # a step whose input is not the last output starts a new probe.
            if args[0] is not self._last_step_out:
                c["analysis.tune_blowup_amplitude.probes"] += 1
            c["analysis.tune_blowup_amplitude.steps"] += 1

        def after_step_w(args, kwargs, result):
            self._last_step_out = result

        def after_run_similarity(args, kwargs, result):
            c["analysis.run_similarity.steps"] += len(result.step_s) - 1

        rtb = originals["physical_solver.run_to_blowup"]
        rtb_sig = inspect.signature(rtb) if rtb is not None else None

        def after_run_to_blowup(args, kwargs, result):
            bound = rtb_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            cap = bound.arguments["safety"] * bound.arguments["u0"].spacing ** 2
            dts = np.diff(result.sup_history[:, 0])
            c["physical_solver.run_to_blowup.steps"] += dts.size
            c["physical_solver.run_to_blowup.h2_capped_steps"] += int(
                np.sum(np.abs(dts - cap) <= 1e-9 * cap)
            )

        def after_write_csv(args, kwargs, result):
            c["cli.write_csv.bytes"] += os.path.getsize(args[0])

        before = {"similarity_solver.step_w": before_step_w}
        after = {
            "similarity_solver.step_w": after_step_w,
            "analysis.run_similarity": after_run_similarity,
            "physical_solver.run_to_blowup": after_run_to_blowup,
            "cli.write_csv": after_write_csv,
        }
        return {
            name: self.wrap(name, fn, before.get(name), after.get(name))
            for name, fn in originals.items()
            if fn is not None
        }

    def _in(self, name: str) -> bool:
        code = self._code[name]
        return any(self.layer[i] == code for i in self._stack)

    @contextmanager
    def patched(self, modules: dict):
        """Install the wrappers at every site of SITES; restore on exit.

        modules maps the short module names used in SITES to module objects.
        A site missing from the package is skipped and listed in unpatched.
        """
        originals = {}
        for name, sites in SITES.items():
            found = [getattr(modules[m], attr, None) for m, attr in sites]
            originals[name] = next((f for f in found if f is not None), None)
        wrappers = self._wrappers(originals)
        saved = []
        try:
            for name, sites in SITES.items():
                for m, attr in sites:
                    mod = modules[m]
                    if name not in wrappers or not hasattr(mod, attr):
                        self.unpatched.append(f"{m}.{attr}")
                        continue
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrappers[name])
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Per-layer calls, self time and inclusive time from the span tree."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        k = len(self._names)
        calls = np.bincount(layer, minlength=k)
        self_s = np.bincount(layer, weights=self_time, minlength=k)
        incl_s = np.bincount(layer, weights=dur, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
            }
            for i, name in enumerate(self._names)
        }
