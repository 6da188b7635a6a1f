"""Deterministic fan-out of independent numbered tasks.

Results are collected into task order no matter how many workers run, so
outputs are identical across parallelism degrees.  Tasks should be pure
functions of their index (plus closed-over config).  `ensemble` is the
Monte Carlo loop of every IDS estimator and check, in the library and in
the drivers; `frequency` is the one reduction of every Monte Carlo
frequency, the `mc_*` bound companions included.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .disorder import ValidationError
from .stats import clopper_pearson

__all__ = ["resolve_threads", "indexed_map", "ensemble", "trials", "frequency",
           "TaskFailure"]

THREADS_ENV = "LIFSHITZ_LAB_THREADS"


class TaskFailure(RuntimeError):
    """Wraps a task exception with its index for the run report."""

    def __init__(self, index: int, error: BaseException):
        super().__init__(f"task {index} failed: {error!r}")
        self.index = index
        self.error = error


def resolve_threads(explicit: int = None) -> int:
    if explicit is not None:
        n = int(explicit)
    else:
        n = int(os.environ.get(THREADS_ENV, "1"))
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


def indexed_map(fn, n_tasks: int, threads: int = 1, collect_errors: bool = False):
    """fn(i) for i in range(n_tasks), results returned in index order.

    With collect_errors the return value is (results, failures) where failed
    slots hold None and failures is a list of TaskFailure; otherwise the
    first failure propagates.
    """
    results = [None] * n_tasks
    failures = []

    def guarded(i):
        try:
            return i, fn(i), None
        except Exception as exc:  # noqa: BLE001 - reported via TaskFailure
            return i, None, exc

    if threads <= 1:
        triples = map(guarded, range(n_tasks))
    else:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            triples = list(pool.map(guarded, range(n_tasks)))
        finally:
            pool.shutdown(wait=True)
    for i, value, exc in triples:
        if exc is not None:
            if not collect_errors:
                raise TaskFailure(i, exc) from exc
            failures.append(TaskFailure(i, exc))
        else:
            results[i] = value
    if collect_errors:
        return results, failures
    return results


def ensemble(task, n: int, threads: int = 1):
    """task(i) for i < n fanned out; returns (samples, failures).

    samples stacks the results of the tasks that ran, in index order, along
    axis 0; failures lists a TaskFailure per task that raised.  When every
    task fails the first failure is raised.
    """
    if n < 1:
        raise ValidationError("need at least one realization")
    results, failures = indexed_map(task, n, threads, collect_errors=True)
    if len(failures) == n:
        raise failures[0]
    return np.stack([r for r in results if r is not None]), failures


def trials(task, n: int, threads: int = 1) -> np.ndarray:
    """ensemble() for checks that report a frequency: a failed trial raises,
    since dropping it would bias the frequency."""
    samples, failures = ensemble(task, n, threads)
    if failures:
        raise failures[0]
    return samples


def frequency(event, n: int, threads: int = 1):
    """Frequency of event(i) over trials i < n with its 95% Clopper-Pearson
    interval, as (freq, lo, hi, successes); a failed trial raises."""
    successes = int(np.count_nonzero(trials(event, n, threads)))
    lo, hi = clopper_pearson(successes, n)
    return successes / n, lo, hi, successes
