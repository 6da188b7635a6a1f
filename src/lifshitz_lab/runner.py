"""Deterministic fan-out of independent numbered tasks.

Results are collected into task order no matter how many workers run, so
outputs are identical across parallelism degrees.  Tasks should be pure
functions of their index, or of a fixed block of indices (plus closed-over
config).  `ensemble` is the Monte Carlo loop of every IDS estimator and
check, in the library and in the drivers, and the one place that records a
failed task against its index; `indexed_map` itself raises the lowest one.
`frequency` is the one reduction of every Monte Carlo frequency, the `mc_*`
bound companions included.
"""

from __future__ import annotations

import numbers
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


def _integral(value):
    """value as an int when it is an integer or a float equal to one, never a bool; else None."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    return None if isinstance(value, bool) or not isinstance(value, numbers.Integral) else int(value)


def resolve_threads(explicit: int = None) -> int:
    """The worker count: explicit, else $LIFSHITZ_LAB_THREADS, else 1; ValueError unless an
    integer >= 1 by `_integral` (a string, as the variable's value, is parsed by int first)."""
    raw = os.environ.get(THREADS_ENV, "1") if explicit is None else explicit
    try:
        n = _integral(int(raw) if isinstance(raw, str) else raw)
    except ValueError:
        n = None
    if n is None or n < 1:
        source = f"${THREADS_ENV}=" if explicit is None else ""
        raise ValueError(f"thread count must be an integer >= 1, got {source}{raw!r}")
    return n


def indexed_map(fn, n_tasks: int, threads: int = 1):
    """fn(i) for i in range(n_tasks), results returned in index order.

    A task that raises raises TaskFailure; with several, the lowest index's.
    """

    def guarded(i):
        try:
            return fn(i)
        except Exception as exc:  # noqa: BLE001 - reported via TaskFailure
            raise TaskFailure(i, exc) from exc

    if threads <= 1:
        return list(map(guarded, range(n_tasks)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(guarded, range(n_tasks)))


def _block_rows(task, indices: range) -> list:
    """task's rows for a block of indices; a block that raises is rerun one index
    at a time, so a failure lands in the row of its own index as a TaskFailure."""
    try:
        return list(task(indices))
    except Exception as exc:  # noqa: BLE001 - reported via TaskFailure
        if len(indices) == 1:
            return [TaskFailure(indices.start, exc)]
        return [row for i in indices for row in _block_rows(task, range(i, i + 1))]


def ensemble(task, n: int, threads: int = 1, block: int = None):
    """task(i) for i < n fanned out; returns (samples, failures).

    samples stacks the results of the tasks that ran, in index order, along
    axis 0; failures lists a TaskFailure per task that raised.  When every
    task fails the first failure is raised.  With `block`, task takes the
    fixed blocks range(0, block), range(block, 2 * block), ... and returns one
    row per index; the blocks, not the indices, are fanned out.
    """
    if n < 1:
        raise ValidationError("need at least one realization")
    rows = task if block else (lambda indices: [task(indices.start)])
    blocks = [range(lo, min(lo + (block or 1), n)) for lo in range(0, n, block or 1)]
    results = [row for out in indexed_map(lambda j: _block_rows(rows, blocks[j]), len(blocks), threads)
               for row in out]
    failures = [r for r in results if isinstance(r, TaskFailure)]
    if len(failures) == n:
        raise failures[0]
    return np.stack([r for r in results if not isinstance(r, TaskFailure)]), failures


def trials(task, n: int, threads: int = 1, block: int = None) -> np.ndarray:
    """ensemble() for checks that report a frequency: a failed trial raises,
    since dropping it would bias the frequency."""
    samples, failures = ensemble(task, n, threads, block)
    if failures:
        raise failures[0]
    return samples


def frequency(event, n: int, threads: int = 1, block: int = None):
    """Frequency of event(i) over trials i < n (with `block`, as in ensemble) with
    its 95% Clopper-Pearson interval, as (freq, lo, hi, successes); a failed
    trial raises."""
    successes = int(np.count_nonzero(trials(event, n, threads, block)))
    lo, hi = clopper_pearson(successes, n)
    return successes / n, lo, hi, successes
