"""Spans and counters recorded from outside the package.

`Tracer.patched()` temporarily replaces each layer's public functions under
the names the consumer modules call them by (``experiments.counts_below``,
``spectral.assemble_operator``, ``anderson.potential_on_box``,
``disorder.Realization.values_at`` ...) with wrappers that record a span
(name, start, end, parent, unit id) and bump counters.  Nothing under
``src/`` is edited; leaving the context restores every original.

A span's self time is its duration minus the durations of its child spans.
`layer_metrics` turns self times and counters into per-unit figures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
import scipy

from lifshitz_lab import anderson, disorder, experiments, lattice, spectral

# span name -> per-layer metric carrying the span's summed self time
SPAN_METRICS = {
    "disorder.sample": "disorder.sample_s",
    "disorder.lookup": "disorder.lookup_s",
    "lattice.field": "lattice.field_s",
    "lattice.assemble": "lattice.assemble_s",
    "spectral.count": "spectral.count_s",
    "spectral.eig": "spectral.eig_s",
    "spectral.bands": "spectral.bands_s",
    "anderson.sample": "anderson.sample_s",
    "anderson.potential": "anderson.potential_s",
    "anderson.assemble": "anderson.assemble_s",
    "ids.fit": "ids.fit_s",
    "experiments.run": "experiments.self_s",
    "experiments.unit": "experiments.unit_self_s",
    "experiments.write": "experiments.write_s",
    "config.validate": "config.validate_s",
}

# counters reported per unit; runner.* counters are reported as totals
PER_UNIT_COUNTERS = ("disorder.sites", "lattice.field_pairs", "lattice.assemble_calls",
                     "lattice.nnz", "spectral.factorizations", "spectral.eta_retries",
                     "spectral.eig_calls", "experiments.bytes_written")


class _Proxy:
    """Module stand-in: listed attributes overridden, the rest delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit id]
        self.counters = Counter()
        self._local = threading.local()
        self._next_unit = 0

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _unit(self):
        return getattr(self._local, "unit", None)

    def _new_unit(self) -> int:
        unit, self._next_unit = self._next_unit, self._next_unit + 1
        return unit

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, stack[-1] if stack else -1,
                           self._unit()])
        stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            stack.pop()

    def wrap(self, fn, name: str = None, count=None):
        """fn recorded as span `name` (None: no span); count(counters, args, out)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                with self.span(name):
                    out = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, kwargs, out)
            return out

        return traced

    # -- wrappers that also assign unit ids ------------------------------------

    def _wrap_indexed_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(task, n_tasks, threads=1, collect_errors=False):
            base = tracer._next_unit
            tracer._next_unit += n_tasks

            def unit_task(i):
                tracer._local.unit = base + i
                try:
                    with tracer.span("experiments.unit"):
                        return task(i)
                finally:
                    tracer._local.unit = None

            out = fn(unit_task, n_tasks, threads, collect_errors)
            tracer.counters["runner.tasks"] += n_tasks
            if collect_errors:
                tracer.counters["runner.failures"] += len(out[1])
            return out

        return traced

    def _wrap_fiber_assembly(self, fn):
        # inside floquet_bands every assembly starts a new fiber, the unit of
        # the bands workload; the eigvalsh that follows inherits its id
        traced = self.wrap(fn, "lattice.assemble", _count_assembly)

        @functools.wraps(fn)
        def fiber(*args, **kwargs):
            self._local.unit = self._new_unit()
            return traced(*args, **kwargs)

        return fiber

    def _wrap_bands(self, fn):
        traced = self.wrap(fn, "spectral.bands")

        @functools.wraps(fn)
        def bands(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                self._local.unit = None

        return bands

    # -- patching --------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        eig = self.wrap(scipy.linalg.eigvalsh, "spectral.eig", _count_eig)
        np_eig = self.wrap(np.linalg.eigvalsh, "spectral.eig", _count_eig)
        ldl = self.wrap(scipy.linalg.ldl, None, _count_ldl)
        patches = [
            (experiments, "validate", self.wrap(experiments.validate, "config.validate")),
            (experiments, "indexed_map", self._wrap_indexed_map(experiments.indexed_map)),
            (experiments, "sample_realization",
             self.wrap(experiments.sample_realization, "disorder.sample", _count_sites)),
            (experiments, "sample_coefficient_field",
             self.wrap(experiments.sample_coefficient_field, "lattice.field")),
            (experiments, "assemble_operator",
             self.wrap(experiments.assemble_operator, "lattice.assemble", _count_assembly)),
            (experiments, "counts_below",
             self.wrap(experiments.counts_below, "spectral.count", _count_energies)),
            (experiments, "floquet_bands", self._wrap_bands(experiments.floquet_bands)),
            (experiments, "sample_anderson",
             self.wrap(experiments.sample_anderson, "anderson.sample")),
            (experiments, "lifshitz_exponent",
             self.wrap(experiments.lifshitz_exponent, "ids.fit")),
            (experiments, "_write_csv",
             self.wrap(experiments._write_csv, "experiments.write", _count_bytes)),
            (experiments, "_write_json",
             self.wrap(experiments._write_json, "experiments.write", _count_bytes)),
            (experiments, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=np_eig))),
            (spectral, "assemble_operator", self._wrap_fiber_assembly(spectral.assemble_operator)),
            (spectral, "scipy",
             _Proxy(scipy, linalg=_Proxy(scipy.linalg, eigvalsh=eig, ldl=ldl))),
            (anderson, "sample_realization",
             self.wrap(anderson.sample_realization, "disorder.sample", _count_sites)),
            (anderson, "potential_on_box",
             self.wrap(anderson.potential_on_box, "anderson.potential")),
            (anderson, "assemble_anderson",
             self.wrap(anderson.assemble_anderson, "anderson.assemble")),
            (lattice, "_accumulate", self.wrap(lattice._accumulate, None, _count_pairs)),
            (disorder.Realization, "values_at",
             self.wrap(disorder.Realization.values_at, "disorder.lookup")),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            totals[name] += (end - start) - c
        return dict(totals)

    def unit_latencies(self) -> list:
        """Per unit: first span start to last span end among its spans."""
        bounds = {}
        for _, start, end, _, unit in self.spans:
            if unit is None:
                continue
            lo, hi = bounds.get(unit, (start, end))
            bounds[unit] = (min(lo, start), max(hi, end))
        return [hi - lo for lo, hi in bounds.values()]

    def layer_metrics(self, n_units: int) -> dict:
        """Per-unit self times and counters, plus runner totals."""
        per_unit = 1.0 / max(n_units, 1)
        selfs = self.self_times()
        out = {metric: (selfs.get(span, 0.0) * per_unit, "s/unit")
               for span, metric in SPAN_METRICS.items()}
        counters = Counter(self.counters)
        counters["spectral.eta_retries"] = (counters["spectral.factorizations"]
                                            - counters["spectral.energies"])
        for name in PER_UNIT_COUNTERS:
            out[name] = (counters[name] * per_unit, "1/unit")
        out["runner.tasks"] = (counters["runner.tasks"], "count")
        out["runner.failures"] = (counters["runner.failures"], "count")
        return out

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "unit": unit}) + "\n")


# -- counters ---------------------------------------------------------------------


def _count_sites(counters, args, kwargs, out):
    counters["disorder.sites"] += len(out.window)


def _count_pairs(counters, args, kwargs, out):
    # _accumulate(background, profile, sites, couplings, box, tol)
    counters["lattice.field_pairs"] += len(args[2]) * args[4].n_cells


def _count_assembly(counters, args, kwargs, out):
    counters["lattice.assemble_calls"] += 1
    counters["lattice.nnz"] += out.matrix.nnz


def _count_energies(counters, args, kwargs, out):
    counters["spectral.energies"] += len(out)


def _count_ldl(counters, args, kwargs, out):
    counters["spectral.factorizations"] += 1


def _count_eig(counters, args, kwargs, out):
    counters["spectral.eig_calls"] += 1


def _count_bytes(counters, args, kwargs, out):
    counters["experiments.bytes_written"] += os.path.getsize(args[0])
